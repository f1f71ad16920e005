// Package accessmap derives a normalized interval view of a memory
// protection unit's register state: a sorted list of disjoint, maximal
// address intervals with a uniform allow decision per (access kind,
// privilege level). Range queries ("is every byte of [start, start+len)
// user-writable?") answer in O(log intervals) by binary search, replacing
// the O(length × regions) per-byte scans the bounded checker and the
// fault-injection recheck used to bottom out in.
//
// The engine is deliberately hardware-agnostic: a port hands Build the set
// of addresses where its decision function *may* change (region bases and
// ends, subregion boundaries, TOR/NAPOT bounds) plus its trusted per-byte
// Allows as the decision oracle. Build sweeps the elementary segments
// between consecutive boundaries, evaluates the oracle once per segment
// per (kind, privilege) slot — the decision is uniform inside a segment by
// construction — and merges adjacent segments with equal decisions into
// maximal intervals. Correctness therefore reduces to the boundary set
// being complete, which the oracle-equivalence specs in internal/specs
// and the per-port fuzz tests check differentially over the full bounded
// domain.
//
// End-of-address-space semantics (shared with every port's byte-scan
// oracle): addresses are 32-bit, so the address space is [0, 2³²). A
// zero-length range is vacuously all-allowed and never any-allowed. A
// range whose end exceeds 2³² includes bytes that do not exist: it can
// never be *entirely* accessible (AllAllowed fails closed), while
// AnyAllowed clips to the bytes that do exist.
package accessmap

import (
	"sort"

	"ticktock/internal/mpu"
)

// AddressSpace is one past the last valid 32-bit address.
const AddressSpace = uint64(1) << 32

// Interval is a half-open address range [Start, End) with End ≤ 2³².
type Interval struct {
	Start, End uint64
}

// Checker is the per-address decision oracle a Map is built from: it
// reports whether a one-byte access of the given kind at addr succeeds at
// the given privilege level. Ports pass their hardware Allows method.
type Checker func(addr uint32, kind mpu.AccessKind, privileged bool) bool

// numSlots covers the (read, write, execute) × (user, privileged) cross
// product.
const numSlots = 6

// slotOf indexes the decision slot for an access kind and privilege.
func slotOf(kind mpu.AccessKind, privileged bool) int {
	s := int(kind) * 2
	if privileged {
		s++
	}
	return s
}

// Map is the normalized interval view of one protection configuration.
// It is immutable after Build; ports cache one in a Cache and rebuild
// only when the registers change.
type Map struct {
	// allowed holds, per slot, the sorted, disjoint, maximal intervals
	// where the decision is allow. Maximality (adjacent allow segments
	// are merged) is what makes the AllAllowed query a single binary
	// search: a range is entirely allowed iff one interval contains it.
	allowed  [numSlots][]Interval
	segments int
}

// Build constructs a Map. boundaries is every address at which the
// decision of check may change; 0 and 2³² are implied, duplicates and
// out-of-range values are ignored. check is evaluated once per elementary
// segment per slot, on the segment's first address.
func Build(boundaries []uint64, check Checker) *Map {
	bs := make([]uint64, 0, len(boundaries)+2)
	bs = append(bs, 0, AddressSpace)
	for _, b := range boundaries {
		if b > 0 && b < AddressSpace {
			bs = append(bs, b)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	uniq := bs[:1]
	for _, b := range bs[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	m := &Map{segments: len(uniq) - 1}
	for i := 0; i+1 < len(uniq); i++ {
		rep := uint32(uniq[i])
		for s := 0; s < numSlots; s++ {
			if !check(rep, mpu.AccessKind(s/2), s%2 == 1) {
				continue
			}
			iv := m.allowed[s]
			if n := len(iv); n > 0 && iv[n-1].End == uniq[i] {
				iv[n-1].End = uniq[i+1]
			} else {
				m.allowed[s] = append(iv, Interval{Start: uniq[i], End: uniq[i+1]})
			}
		}
	}
	return m
}

// find returns the index of the first interval in iv whose End exceeds s.
func find(iv []Interval, s uint64) int {
	return sort.Search(len(iv), func(i int) bool { return iv[i].End > s })
}

// AllAllowed reports whether every byte of [start, start+length) admits
// an access of the given kind at the given privilege. Zero length is
// vacuously true; a range running past the top of the address space is
// false (the bytes beyond it do not exist). O(log intervals).
func (m *Map) AllAllowed(start, length uint32, kind mpu.AccessKind, privileged bool) bool {
	if length == 0 {
		return true
	}
	s := uint64(start)
	e := s + uint64(length)
	if e > AddressSpace {
		return false
	}
	iv := m.allowed[slotOf(kind, privileged)]
	i := find(iv, s)
	return i < len(iv) && iv[i].Start <= s && e <= iv[i].End
}

// Lookup returns the maximal allow interval containing addr for the
// given kind and privilege, or ok=false when addr is not allowed at all.
// Because intervals are maximal and disjoint, the returned interval is
// the exact span over which a cached "allowed" decision for addr stays
// valid while the configuration does not change — the contract the
// block-cache fast paths rely on. O(log intervals).
func (m *Map) Lookup(addr uint32, kind mpu.AccessKind, privileged bool) (Interval, bool) {
	iv := m.allowed[slotOf(kind, privileged)]
	a := uint64(addr)
	i := find(iv, a)
	if i < len(iv) && iv[i].Start <= a {
		return iv[i], true
	}
	return Interval{}, false
}

// AnyAllowed reports whether at least one byte of [start, start+length)
// admits an access of the given kind at the given privilege. Bytes past
// the top of the address space do not exist and are ignored; zero length
// is false. O(log intervals).
func (m *Map) AnyAllowed(start, length uint32, kind mpu.AccessKind, privileged bool) bool {
	s := uint64(start)
	e := s + uint64(length)
	if e > AddressSpace {
		e = AddressSpace
	}
	if s >= e {
		return false
	}
	iv := m.allowed[slotOf(kind, privileged)]
	i := find(iv, s)
	return i < len(iv) && iv[i].Start < e
}

// Intervals returns a copy of the maximal allow intervals for one slot,
// for tests and diagnostics.
func (m *Map) Intervals(kind mpu.AccessKind, privileged bool) []Interval {
	return append([]Interval(nil), m.allowed[slotOf(kind, privileged)]...)
}

// Segments returns the number of elementary segments the build swept, a
// diagnostic for boundary-set growth.
func (m *Map) Segments() int { return m.segments }
