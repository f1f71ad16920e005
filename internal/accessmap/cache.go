package accessmap

import "ticktock/internal/mpu"

// Unit is the protection hardware a Cache derives its Map from.
type Unit interface {
	// Check is the unit's trusted per-byte decision: nil when a one-byte
	// access of kind at addr succeeds at the given privilege.
	Check(addr uint32, kind mpu.AccessKind, privileged bool) error
	// Boundaries returns every address at which Check's decision may
	// change (see Build).
	Boundaries() []uint64
	// Ctrl returns the unit's control word: the state that changes
	// Check's decisions without a call to Invalidate, such as ARM's
	// MPU_CTRL bits, which are plain fields. Units without such state
	// return 0.
	Ctrl() uint32
}

// Cache holds the Map derived from one Unit's registers. It rebuilds
// the map only when the unit called Invalidate since the last build or
// the control word differs from the one the map was built under. Every
// rebuild allocates a new Map, so a *Map names one configuration: a
// decision cached beside the map it was read from (a block's execute
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
	ctrl uint32
}

// NewCache returns an empty cache over u.
func NewCache(u Unit) Cache { return Cache{unit: u} }

// Invalidate marks the cached map stale. Units call it from every
// register mutation, including the unvalidated fault-injection path.
func (c *Cache) Invalidate() { c.m = nil }

// Current returns the map when it is current under ctrl, which must be
// the unit's Ctrl(), and nil when the unit called Invalidate since the
// last build or the control word changed. It never builds, so the fast
// cores call it on every block entry and data access with ctrl read
// directly from the unit: the check inlines and holds no call. On nil
// they fall back to AccessMap.
func (c *Cache) Current(ctrl uint32) *Map {
	if m := c.m; m != nil && c.ctrl == ctrl {
		return m
	}
	return nil
}

// AccessMap returns the map for the unit's current state, building it
// where Current would return nil.
func (c *Cache) AccessMap() *Map {
	ctrl := c.unit.Ctrl()
	if m := c.Current(ctrl); m != nil {
		return m
	}
	u := c.unit
	c.m = Build(u.Boundaries(), func(addr uint32, kind mpu.AccessKind, privileged bool) bool {
		return u.Check(addr, kind, privileged) == nil
	})
	c.ctrl = ctrl
	c.MapBuilds++
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
// AccessibleUser: one unit Check per byte, O(length × regions). Kept for
// differential verification of the interval engine, not for hot paths.
// It shares AccessibleUser's end-of-address-space semantics.
func (c *Cache) AccessibleUserByteScan(start, length uint32, kind mpu.AccessKind) bool {
	end := uint64(start) + uint64(length)
	if end > AddressSpace {
		return false
	}
	for a := uint64(start); a < end; a++ {
		if c.unit.Check(uint32(a), kind, false) != nil {
			return false
		}
	}
	return true
}
