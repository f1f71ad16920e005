package accessmap

import "ticktock/internal/mpu"

// Unit is the protection hardware a Cache derives its Map from. Its
// decision is a pure function of its registers, and every register
// write, including a control register such as ARM's MPU_CTRL, calls
// Invalidate.
type Unit interface {
	// Allows is the unit's trusted per-byte decision: whether a
	// one-byte access of kind at addr succeeds at the given privilege.
	Allows(addr uint32, kind mpu.AccessKind, privileged bool) bool
	// Boundaries returns every address at which Allows's decision may
	// change (see Build).
	Boundaries() []uint64
}

// Cache holds the Map derived from one Unit's registers. It rebuilds
// the map only when the unit called Invalidate since the last build.
// Every rebuild allocates a new Map, so a *Map names one configuration:
// a decision cached beside the map it was read from (a block's execute
// cover, a load/store hint) stays valid while Current returns that
// pointer.
//
// The protection units embed a Cache built by NewCache in their
// constructors. The cache refers back to its unit, so a unit must not
// be copied as a struct value.
type Cache struct {
	// MapBuilds counts map constructions; the cache-invalidation
	// ablation guard asserts it only moves when the configuration does.
	MapBuilds uint64

	unit Unit
	m    *Map // nil before the first build and after Invalidate
}

// NewCache returns an empty cache over u.
func NewCache(u Unit) Cache { return Cache{unit: u} }

// Invalidate marks the cached map stale. Units call it from every
// register write, including the unvalidated fault-injection path.
func (c *Cache) Invalidate() { c.m = nil }

// Current returns the map when it is current, and nil when the unit
// called Invalidate since the last build. It never builds, so the fast
// cores call it on every block entry and data access: it inlines and
// holds no call. On nil they fall back to AccessMap.
func (c *Cache) Current() *Map { return c.m }

// AccessMap returns the map for the unit's current registers, building
// it where Current would return nil.
func (c *Cache) AccessMap() *Map {
	if c.m == nil {
		c.m = Build(c.unit.Boundaries(), c.unit.Allows)
		c.MapBuilds++
	}
	return c.m
}

// AccessibleUser reports whether an unprivileged access of the given
// kind to every byte in [start, start+length) would succeed. It
// characterizes the exact user-accessible footprint the hardware
// enforces, for tests and the verification harness. A zero-length range
// is vacuously accessible; a range running past the top of the 32-bit
// address space is not — those bytes do not exist. Answered from the
// cached map in O(log intervals); AccessibleUserByteScan is the
// per-byte oracle it must agree with.
func (c *Cache) AccessibleUser(start, length uint32, kind mpu.AccessKind) bool {
	return c.AccessMap().AllAllowed(start, length, kind, false)
}

// AnyAccessibleUser reports whether at least one byte in [start,
// start+length) admits an unprivileged access of the given kind. Bytes
// past the top of the address space do not exist and are ignored. The
// isolation sweeps use it to check entire protected spans instead of
// sampling addresses.
func (c *Cache) AnyAccessibleUser(start, length uint32, kind mpu.AccessKind) bool {
	return c.AccessMap().AnyAllowed(start, length, kind, false)
}

// AccessibleUserByteScan is the trusted per-byte oracle for
// AccessibleUser: one unit Allows per byte, O(length × regions). Kept
// for differential verification of the interval engine, not for hot
// paths. It shares AccessibleUser's end-of-address-space semantics.
func (c *Cache) AccessibleUserByteScan(start, length uint32, kind mpu.AccessKind) bool {
	end := uint64(start) + uint64(length)
	if end > AddressSpace {
		return false
	}
	for a := uint64(start); a < end; a++ {
		if !c.unit.Allows(uint32(a), kind, false) {
			return false
		}
	}
	return true
}
