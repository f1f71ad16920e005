package blockcache

import (
	"fmt"
	"sort"
	"sync"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// blockMax bounds the instructions predecoded per block. Blocks end
// dynamically at control flow, traps and tick expiries, so the bound
// only caps wasted decode work past a branch.
const blockMax = 64

// tableBits sizes the direct-mapped block table (1<<bits slots).
const tableBits = 10

// Instr is what the shared core needs of a port's decoded instruction.
type Instr interface {
	// Cost is the instruction's cycle charge.
	Cost() uint64
}

// Program is a sequence of decoded instructions mapped at a flash base
// address; instruction k occupies [Base+4k, Base+4k+4).
type Program[I Instr] struct {
	Base   uint32
	Instrs []I
}

// End returns the first address past the program.
func (p *Program[I]) End() uint32 { return p.Base + uint32(4*len(p.Instrs)) }

// At returns the instruction at addr, or the zero I (nil for the ports'
// interface types) if addr is outside the program or misaligned.
func (p *Program[I]) At(addr uint32) I {
	if addr < p.Base || addr >= p.End() || (addr-p.Base)%4 != 0 {
		var none I
		return none
	}
	return p.Instrs[(addr-p.Base)/4]
}

// ProgramMemo keeps what one pure builder assembled, by load base, so
// every later load at that base shares the first load's Program instead
// of assembling it again. Sharing is sound because nothing writes a
// Program once it is loaded. The zero ProgramMemo is empty and allocates
// its storage on the first Get; it is safe for concurrent use.
type ProgramMemo[I Instr] struct {
	mu     sync.Mutex
	byBase map[uint32]*Program[I]
}

// Get returns build(base), calling build only when no Get at base has
// stored a Program yet. The lock is not held while build runs, so Gets
// that race on a new base may each build; all of them return the
// Program stored first.
func (m *ProgramMemo[I]) Get(base uint32, build func(base uint32) *Program[I]) *Program[I] {
	m.mu.Lock()
	p, ok := m.byBase[base]
	m.mu.Unlock()
	if ok {
		return p
	}
	p = build(base)
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.byBase[base]; ok {
		return first
	}
	if m.byBase == nil {
		m.byBase = make(map[uint32]*Program[I])
	}
	m.byBase[base] = p
	return p
}

// Fast is the fast core's state: the block table, whose Stats hold every
// fast-core counter, and the load/store interval hints.
type Fast[I Instr] struct {
	Table *Table[I]
	Hints Hints
}

// Core is the ISA-neutral half of a machine model, embedded by both
// armv7m.Machine and rv32.Machine: the loaded programs and the fast
// core's state. The ports keep the hit path of block entry (Table.Lookup
// and the comparison of a block's Map and Priv with the unit's current
// map) in their own dispatch loops, and call Core only on a table miss,
// on a new map or privilege, and on an oracle fallback. The zero Core
// has no programs and the fast core disabled.
type Core[I Instr] struct {
	progs []*Program[I] // sorted by base, non-overlapping
	fast  *Fast[I]
}

// LoadProgram maps a program into the instruction space. The backing
// flash bytes are not written; programs live in a parallel decoded
// store. Loading flushes the block table.
func (c *Core[I]) LoadProgram(p *Program[I]) error {
	for _, q := range c.progs {
		if p.Base < q.End() && q.Base < p.End() {
			return fmt.Errorf("program at 0x%08x overlaps program at 0x%08x", p.Base, q.Base)
		}
	}
	c.progs = append(c.progs, p)
	sort.Slice(c.progs, func(i, j int) bool { return c.progs[i].Base < c.progs[j].Base })
	if c.fast != nil {
		c.fast.Table.Flush()
	}
	return nil
}

// ProgramAt returns the loaded program containing addr, or nil. Programs
// are base-sorted and non-overlapping, so their End values are sorted
// too and a single binary search finds the only candidate. The search
// is written out rather than calling sort.Search, which the compiler
// does not inline into this generic method: every oracle fetch runs it.
func (c *Core[I]) ProgramAt(addr uint32) *Program[I] {
	lo, hi := 0, len(c.progs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.progs[mid].End() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(c.progs) && addr >= c.progs[lo].Base {
		return c.progs[lo]
	}
	return nil
}

// SetFastCore enables or disables the block-cache fast core. Enabling
// it changes only speed: the port's Run and data-access checks take
// cached paths whose decisions are keyed on the unit's current access
// map, and every divergence-prone case falls back to the oracle Step.
func (c *Core[I]) SetFastCore(on bool) {
	if !on {
		c.fast = nil
		return
	}
	if c.fast == nil {
		c.fast = &Fast[I]{Table: NewTable[I](tableBits)}
	}
}

// FastCore reports whether the block-cache fast core is enabled.
func (c *Core[I]) FastCore() bool { return c.fast != nil }

// Fast returns the fast core's state, or nil when it is disabled.
func (c *Core[I]) Fast() *Fast[I] { return c.fast }

// FastStats returns the block-cache counters, or nil when the fast core
// is disabled.
func (c *Core[I]) FastStats() *Stats {
	if c.fast == nil {
		return nil
	}
	return &c.fast.Table.Stats
}

// BuildBlock predecodes the straight-line block starting at pc and
// inserts it into the table, or returns nil when no loaded program
// covers pc or pc is misaligned. pure is the port's classifier for
// Block.Pure. Permission state is deliberately not consulted: blocks
// cache only decode results, which are immutable once a program is
// loaded, and Recheck owns all permission decisions.
func (c *Core[I]) BuildBlock(pc uint32, pure func(I) bool) *Block[I] {
	p := c.ProgramAt(pc)
	if p == nil || (pc-p.Base)%4 != 0 {
		return nil
	}
	i := int((pc - p.Base) / 4)
	n := min(len(p.Instrs)-i, blockMax)
	b := &Block[I]{
		Base:   pc,
		Instrs: p.Instrs[i : i+n],
		Prefix: make([]uint64, n+1),
	}
	for k, in := range b.Instrs {
		b.Prefix[k+1] = b.Prefix[k] + in.Cost()
		if pure(in) {
			b.Pure |= 1 << uint(k)
		}
	}
	c.fast.Table.Insert(b)
	return b
}

// Recheck recomputes b's execute cover under the unit's current access
// map am at privilege priv. Ports call it only when am or priv differs
// from the pair b.Cover was computed under.
func (c *Core[I]) Recheck(b *Block[I], am *accessmap.Map, priv bool) {
	b.Cover = 0
	if iv, ok := am.Lookup(b.Base, mpu.AccessExecute, priv); ok {
		b.Cover = CoverFromInterval(b.Base, len(b.Instrs), 4, iv)
	}
	b.Map, b.Priv = am, priv
	c.fast.Table.Stats.CoverRechecks++
}

// Fallback counts one instruction the port is about to retire through
// the oracle Step at block entry, by reason: b is nil when no decoded
// program covers pc or pc is misaligned, and has a zero cover when
// execute is denied at pc.
func (c *Core[I]) Fallback(b *Block[I]) {
	st := &c.fast.Table.Stats
	if b == nil {
		st.SlowNoBlock++
	} else {
		st.SlowDenied++
	}
	st.SlowSteps++
}
