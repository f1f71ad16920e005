package rv32

// The fast core's RISC-V half: Run dispatches through a translation
// cache of predecoded basic blocks instead of per-instruction Step
// calls, with the PMP execute check performed once per block entry over
// the block's cover via the accessmap. The program set, the block table
// and the cold half of block entry live in the embedded blockcache.Core,
// shared with internal/armv7m/blockstep.go; docs/SPEED.md has the
// equivalence argument. The one port-specific wrinkle is the CLINT:
// unlike SysTick, its Advance does not reload — after an expiry the
// count sits at zero and every later Advance re-evaluates expiry (this
// is how DropNext's swallowed tick is followed by a normally-latched
// one) — so a batched Advance is only equivalent to per-instruction
// calls when the batch ends at the first tick-crossing instruction, and
// a zero count with no latched interrupt forces single-instruction
// batches.

import "ticktock/internal/blockcache"

// pureInstr reports whether in's Exec always returns nil and never
// reads or writes the PC, memory, CSRs or the timer — i.e. the dispatch
// loop may run it with a stale PC and without checking for an error or
// a PC write. Register-file ALU operations qualify (x0 discards are
// handled inside setReg); everything else conservatively does not.
func pureInstr(in Instr) bool {
	switch in.(type) {
	case Addi, Add, Sub, Li, And, Or, Xor, Slli, Srli, Mul, Divu:
		return true
	}
	return false
}

// execQuick is the quickened dispatch: the hot opcodes go through
// concrete calls the compiler can devirtualize and inline, everything
// else through the interface. It invokes the very same Exec methods the
// oracle Step does — quickening changes dispatch cost, never semantics.
func execQuick(m *Machine, in Instr) error {
	// Cases are ordered by dynamic frequency in typical app code (loads,
	// stores and register ALU first): the compiler tests the cases in
	// order, so hot opcodes resolve in the first few compares.
	switch q := in.(type) {
	case Lw:
		return q.Exec(m)
	case Sw:
		return q.Exec(m)
	case Add:
		return q.Exec(m)
	case Xor:
		return q.Exec(m)
	case Addi:
		return q.Exec(m)
	case And:
		return q.Exec(m)
	case Or:
		return q.Exec(m)
	case B:
		return q.Exec(m)
	case Lbu:
		return q.Exec(m)
	case Sb:
		return q.Exec(m)
	case Mul:
		return q.Exec(m)
	case Srli:
		return q.Exec(m)
	case Slli:
		return q.Exec(m)
	case Sub:
		return q.Exec(m)
	case Li:
		return q.Exec(m)
	case Jal:
		return q.Exec(m)
	case Jalr:
		return q.Exec(m)
	default:
		return in.Exec(m)
	}
}

// runFast is the fast-core Run loop, byte-identical with the oracle Run
// in every observable effect. The user-mode-only pending poll mirrors
// Step exactly; see the Step comment for why machine mode defers ticks.
func (m *Machine) runFast(budget uint64) (Stop, error) {
	f := m.Fast()
	start := m.Meter.Cycles()
	for {
		if m.Priv == PrivUser && m.Timer.TakePending() {
			m.trap(CauseMachineTimer, 0)
			return Stop{Reason: StopTimer, Cause: CauseMachineTimer}, nil
		}
		pc := m.PC
		b := f.Table.Lookup(pc)
		if b == nil {
			b = m.BuildBlock(pc, pureInstr)
		}
		n := 0
		if b != nil {
			priv := m.machineMode()
			if am := m.PMP.Current(); am == nil || b.Map != am || b.Priv != priv {
				m.Recheck(b, m.PMP.AccessMap(), priv)
			}
			n = b.Cover
		}
		if n == 0 {
			// No decoded program at pc, pc misaligned, or execute
			// denied at pc: slow-step so the oracle fetch raises the
			// identical instruction access fault.
			m.Fallback(b)
			stop, stopped, err := m.Step()
			if stopped || err != nil {
				return stop, err
			}
			if budget != 0 && m.Meter.Cycles()-start >= budget {
				return Stop{Reason: StopBudget}, nil
			}
			continue
		}
		// CLINT batching rule (see package comment): with the interrupt
		// already latched, Advance only subtracts and batching is free;
		// otherwise the batch must end at the first tick-crossing
		// instruction, and a post-expiry zero count forces single steps.
		if m.Timer.Enabled && !m.Timer.pending {
			c := m.Timer.current
			if c == 0 {
				c = 1
			}
			if k := blockcache.BatchLimit(b.Prefix, n, c-1); k+1 < n {
				n = k + 1
			}
		}
		if budget != 0 {
			rem := budget - (m.Meter.Cycles() - start)
			if k := blockcache.BatchLimit(b.Prefix, n, rem-1); k+1 < n {
				n = k + 1
			}
		}
		// pcWritten is cleared once per batch, not per instruction: only
		// writePC sets it, the loop breaks immediately after any set, and
		// pure instructions never call it.
		m.pcWritten = false
		retired := 0
		var execErr error
		for i := 0; i < n; i++ {
			in := b.Instrs[i]
			if b.Pure&(1<<uint(i)) != 0 {
				// Pure per Block.Pure: no error, no PC access. The stale
				// PC is unobservable until the next impure instruction,
				// which restores it before executing.
				_ = execQuick(m, in)
				retired = i + 1
				continue
			}
			m.PC = b.Base + uint32(4*i)
			execErr = execQuick(m, in)
			retired = i + 1
			if execErr != nil || m.pcWritten {
				break
			}
		}
		// Charge the batch in one go before any trap entry so the meter
		// and timer match the oracle at trap time. No Exec reads the
		// meter or timer, so deferring the charges is unobservable.
		cost := b.Prefix[retired]
		m.Meter.Add(cost)
		m.Timer.Advance(cost)
		if execErr != nil {
			return m.execStop(execErr)
		}
		if !m.pcWritten {
			m.PC = b.Base + uint32(4*retired)
		}
		if budget != 0 && m.Meter.Cycles()-start >= budget {
			return Stop{Reason: StopBudget}, nil
		}
	}
}
