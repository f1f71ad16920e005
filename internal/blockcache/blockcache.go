// Package blockcache implements the shared machinery behind the fast
// emulator cores: a translation cache of predecoded basic blocks and a
// last-hit interval hint cache for load/store protection checks.
//
// The cache itself is deliberately dumb — it never decides whether an
// access is allowed. Permission decisions come from the port's accessmap
// (itself differentially verified against the hardware Check oracle), and
// every cached decision is keyed on the *accessmap.Map it was read from.
// The unit's access-map cache allocates a new Map whenever the registers
// change (WriteRegion/ClearRegion/SetEntry/FlipBits/Restore all
// invalidate it) or a control bit differs, so stale blocks fail their map
// comparison on next entry and recompute their cover, and load/store
// hints drop wholesale. A stale entry can therefore never authorize an
// access the current registers would deny; see docs/SPEED.md for the full
// soundness argument.
//
// Blocks are generic over the port's decoded instruction type so armv7m
// and rv32 share one table implementation without interface-call overhead
// in the dispatch loop.
package blockcache

import (
	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// Stats counts fast-core cache behaviour for tests, specs and the
// ablation tooling. Single-threaded like the machines themselves.
type Stats struct {
	Hits          uint64 // block found in the table
	Misses        uint64 // block not cached (built or slow-stepped)
	Builds        uint64 // blocks decoded and inserted
	Flushes       uint64 // whole-table invalidations (program load)
	CoverRechecks uint64 // block cover recomputed under a new map or privilege
	SlowSteps     uint64 // instructions retired via the oracle Step path
	HintHits      uint64 // load/store checks answered by the interval hint
	HintMisses    uint64 // load/store checks that fell back to the full map
}

// Block is one predecoded basic block: the quickened instruction
// sequence starting at Base, plus the cached execute-permission cover
// for the access map it was last checked under.
type Block[I any] struct {
	Base   uint32
	Instrs []I
	// Prefix[i] is the summed Cost of the first i instructions
	// (len(Prefix) == len(Instrs)+1), so a batch of n instructions
	// charges Prefix[n] to the meter and timer in one call, and a trap
	// at index i charges exactly Prefix[i+1] — byte-identical with the
	// oracle's per-instruction accounting.
	Prefix []uint64
	// Map and Priv key the cached Cover: it is valid only while the
	// unit's current access map and the executing privilege both match.
	// A nil Map means the cover was never computed.
	Map  *accessmap.Map
	Priv bool
	// Cover is the number of leading instructions whose first byte is
	// execute-allowed under (Map, Priv), mirroring the oracle fetch
	// which checks only the first byte of each instruction.
	Cover int
	// Pure is a bitmask (bit i ⇒ Instrs[i]) of instructions the port has
	// classified as pure: Exec always returns nil, never reads or writes
	// the PC, and touches no memory or trap state. The dispatch loop may
	// skip the per-instruction PC store and the error/PC-written breaks
	// for them — with a stale PC unobservable during a pure run, the
	// shortcut is invisible. Ports must classify conservatively: an unset
	// bit is always safe. Bits past index 63 are never set (fastBlockMax
	// in both ports is ≤ 64).
	Pure uint64
}

// Table is a direct-mapped block cache with a map backing store: the
// slot array makes the hit path a single masked index plus one compare,
// while the map keeps conflicting blocks alive so rebuilding is never
// needed for a clean-slot miss.
type Table[I any] struct {
	slots   []*Block[I]
	mask    uint32
	backing map[uint32]*Block[I]
	Stats   Stats
}

// NewTable returns a table with 1<<slotBits direct-mapped slots.
func NewTable[I any](slotBits uint) *Table[I] {
	n := uint32(1) << slotBits
	return &Table[I]{
		slots:   make([]*Block[I], n),
		mask:    n - 1,
		backing: make(map[uint32]*Block[I]),
	}
}

// Lookup returns the cached block starting exactly at pc, or nil.
func (t *Table[I]) Lookup(pc uint32) *Block[I] {
	s := (pc >> 2) & t.mask
	if b := t.slots[s]; b != nil && b.Base == pc {
		t.Stats.Hits++
		return b
	}
	if b, ok := t.backing[pc]; ok {
		t.slots[s] = b
		t.Stats.Hits++
		return b
	}
	t.Stats.Misses++
	return nil
}

// Insert adds a freshly built block to the table.
func (t *Table[I]) Insert(b *Block[I]) {
	t.slots[(b.Base>>2)&t.mask] = b
	t.backing[b.Base] = b
	t.Stats.Builds++
}

// Flush drops every cached block. Ports call it when the set of loaded
// programs changes; register mutations do not need it (the map key on
// Cover handles those).
func (t *Table[I]) Flush() {
	for i := range t.slots {
		t.slots[i] = nil
	}
	t.backing = make(map[uint32]*Block[I])
	t.Stats.Flushes++
}

// CoverFromInterval returns how many of a block's n fixed-width
// instructions, starting at base, have their first byte inside the
// execute-allow interval iv. The first-byte rule mirrors the oracle
// fetch exactly: an instruction whose first byte is allowed executes
// even if the interval ends mid-instruction. Returns 0 when base itself
// is outside iv. Exhausting the cover is not a fault — the next
// instruction's first byte may land in a later allow interval, so the
// fast core simply re-enters block lookup at the new PC.
func CoverFromInterval(base uint32, n int, width uint32, iv accessmap.Interval) int {
	a := uint64(base)
	if a < iv.Start || a >= iv.End {
		return 0
	}
	c := (iv.End - a + uint64(width) - 1) / uint64(width)
	if c > uint64(n) {
		return n
	}
	return int(c)
}

// BatchLimit returns the largest n ≤ max with Prefix[n] ≤ budget: the
// number of instructions that can retire before cumulative cost crosses
// budget. The result can be 0 — callers clamp to ≥1 so a tick due
// mid-instruction still lets the current instruction finish, exactly as
// the oracle's post-Exec Advance does.
func BatchLimit(prefix []uint64, max int, budget uint64) int {
	n := max
	for n > 0 && prefix[n] > budget {
		n--
	}
	return n
}

// numSlots covers (read, write, execute) × (user, privileged).
const numSlots = 6

func slotOf(kind mpu.AccessKind, privileged bool) int {
	s := int(kind) * 2
	if privileged {
		s++
	}
	return s
}

// Hints caches the last-hit accessmap allow interval per (kind,
// privilege) slot, keyed on the map it was read from. A hint can only
// ever short-circuit the *success* case of a protection check — any miss
// falls through to the full check, so fault values and denial behaviour
// stay byte-identical with the oracle.
type Hints struct {
	iv    [numSlots]accessmap.Interval
	valid [numSlots]bool
	m     *accessmap.Map
}

// Allows reports whether a size-byte access at addr is proven allowed by
// the cached interval for (kind, privileged), given that m is the unit's
// current map. A nil m (no current map) never allows.
func (h *Hints) Allows(addr, size uint32, kind mpu.AccessKind, privileged bool, m *accessmap.Map) bool {
	if m != h.m {
		return false
	}
	s := slotOf(kind, privileged)
	if !h.valid[s] {
		return false
	}
	a := uint64(addr)
	return h.iv[s].Start <= a && a+uint64(size) <= h.iv[s].End
}

// Update refreshes the hint slot from the unit's current map m after a
// miss and reports whether the access is allowed. A new map drops every
// slot first, so intervals read under an old configuration never
// survive.
func (h *Hints) Update(addr, size uint32, kind mpu.AccessKind, privileged bool, m *accessmap.Map) bool {
	if m != h.m {
		*h = Hints{m: m}
	}
	iv, ok := m.Lookup(addr, kind, privileged)
	if !ok {
		return false
	}
	s := slotOf(kind, privileged)
	h.iv[s], h.valid[s] = iv, true
	a := uint64(addr)
	return a+uint64(size) <= iv.End
}
