package armv7m

// The fast core's ARM half: Run dispatches through a translation cache
// of predecoded basic blocks instead of per-instruction Step calls. The
// program set, the block table and the cold half of block entry live in
// the embedded blockcache.Core; this file keeps what is ARM's own: the
// pure-instruction classifier, the quickened dispatch, the SysTick
// batch limit and the dispatch loop with its hit path. The MPU execute
// check runs once per block entry over the block's cover (via the
// accessmap, keyed on the map it was read from), cycle accounting is
// charged in per-batch prefix sums, and the slow path is re-entered only
// on control flow leaving the block, a pending tick, a trap, a
// privilege change, or a new access map.
// Step stays the trusted byte-scan oracle; docs/SPEED.md describes the
// equivalence argument, and the difftest core-oracle suite plus the
// internal/specs block-cache obligations check it differentially.

import "ticktock/internal/blockcache"

// pureInstr reports whether in's Exec always returns nil and never
// reads or writes the PC, mode, CONTROL or memory — i.e. the dispatch
// loop may run it with a stale PC and without checking for an error, a
// PC write or a privilege change. Register-file ALU and flag-setting
// compares qualify (R spans only R0-R12, so they cannot touch the PC);
// everything else conservatively does not.
func pureInstr(in Instr) bool {
	switch in.(type) {
	case AddImm, Add, SubImm, Sub, MovImm, MovReg, CmpImm, CmpReg,
		Mul, Eor, And, Orr, LslImm, LsrImm:
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
	// stores and three-register ALU first): the compiler tests the cases
	// in order, so hot opcodes resolve in the first few compares.
	switch q := in.(type) {
	case Ldr:
		return q.Exec(m)
	case Str:
		return q.Exec(m)
	case Add:
		return q.Exec(m)
	case Eor:
		return q.Exec(m)
	case AddImm:
		return q.Exec(m)
	case SubImm:
		return q.Exec(m)
	case CmpImm:
		return q.Exec(m)
	case B:
		return q.Exec(m)
	case Ldrb:
		return q.Exec(m)
	case Strb:
		return q.Exec(m)
	case Mul:
		return q.Exec(m)
	case And:
		return q.Exec(m)
	case Orr:
		return q.Exec(m)
	case LslImm:
		return q.Exec(m)
	case LsrImm:
		return q.Exec(m)
	case Sub:
		return q.Exec(m)
	case MovImm:
		return q.Exec(m)
	case MovReg:
		return q.Exec(m)
	case CmpReg:
		return q.Exec(m)
	case BL:
		return q.Exec(m)
	case BXLR:
		return q.Exec(m)
	default:
		return in.Exec(m)
	}
}

// runFast is the fast-core Run loop. Every observable effect — register
// and memory state, fault status, meter and timer totals, metrics,
// trace and exception hook invocations — is byte-identical with the
// oracle Run; only the number of MPU checks and program lookups differs.
func (m *Machine) runFast(budget uint64) (Stop, error) {
	f := m.Fast()
	start := m.Meter.Cycles()
	for {
		// The oracle polls the pending tick before every instruction;
		// the batch limit below guarantees a tick can only latch on a
		// batch's last instruction, so polling per batch entry is
		// equivalent.
		if m.Tick.TakePending() {
			return m.preempt()
		}
		pc := m.CPU.PC
		priv := m.CPU.Privileged()
		b := f.Table.Lookup(pc)
		if b == nil {
			b = m.BuildBlock(pc, pureInstr)
		}
		n := 0
		if b != nil {
			if am := m.MPU.Current(); am == nil || b.Map != am || b.Priv != priv {
				m.Recheck(b, m.MPU.AccessMap(), priv)
			}
			n = b.Cover
		}
		if n == 0 {
			// No decoded program at pc, pc misaligned, or execute
			// denied at pc: slow-step so the oracle fetch raises the
			// identical fault (bus fault or IACCVIOL MemManage).
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
		// Limit the batch so a tick can latch only on its last
		// instruction (SysTick.Advance is associative across splits, so
		// one batched Advance then equals the oracle's per-instruction
		// calls) and so the cycle budget is honoured at the same
		// instruction the oracle stops at. The crossing instruction
		// itself stays in the batch, mirroring the oracle's post-Exec
		// Advance and post-Step budget check.
		if m.Tick.Enabled && m.Tick.Reload != 0 {
			c := uint64(m.Tick.current)
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
		if m.Trace == nil {
			for i := 0; i < n; i++ {
				in := b.Instrs[i]
				if b.Pure&(1<<uint(i)) != 0 {
					// Pure per Block.Pure: no error, no PC access, no
					// privilege change. The stale PC is unobservable (no
					// trace hook here) until the next impure instruction,
					// which restores it before executing.
					_ = execQuick(m, in)
					retired = i + 1
					continue
				}
				m.CPU.PC = b.Base + uint32(4*i)
				execErr = execQuick(m, in)
				retired = i + 1
				if execErr != nil || m.pcWritten {
					break
				}
				// An MSR CONTROL write can change the privilege level
				// mid-block; the oracle refetches at the new privilege, so
				// end the batch and let the cover recheck take over.
				if m.CPU.Privileged() != priv {
					break
				}
			}
		} else {
			// With a trace hook attached every instruction must observe
			// its architectural PC, so the pure shortcut is disabled.
			for i := 0; i < n; i++ {
				in := b.Instrs[i]
				m.CPU.PC = b.Base + uint32(4*i)
				m.Trace(m.CPU.PC, in)
				execErr = execQuick(m, in)
				retired = i + 1
				if execErr != nil || m.pcWritten {
					break
				}
				if m.CPU.Privileged() != priv {
					break
				}
			}
		}
		// Charge the batch in one go before any exception entry so the
		// meter, timer and instruction counter match the oracle at the
		// point the OnException hook observes them. No Exec reads the
		// meter or timer, so deferring the charges is unobservable.
		cost := b.Prefix[retired]
		m.mInstr.Add(uint64(retired))
		m.Meter.Add(cost)
		m.Tick.Advance(cost)
		if execErr != nil {
			return m.execStop(execErr)
		}
		if !m.pcWritten {
			m.CPU.PC = b.Base + uint32(4*retired)
		}
		if budget != 0 && m.Meter.Cycles()-start >= budget {
			return Stop{Reason: StopBudget}, nil
		}
	}
}
