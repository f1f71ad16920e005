package rv32

import (
	"fmt"
	"testing"

	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
)

// rvTwins is the differential harness: the same program on two
// identical machines, one on the byte-scan oracle core, one on the
// block-cache fast core. Every Run and every mid-run corruption is
// applied to both; the full architectural state must stay identical.
type rvTwins struct {
	slow, fast *Machine
}

func newRvTwins(t *testing.T, chip riscv.ChipConfig, build func(m *Machine)) *rvTwins {
	t.Helper()
	tw := &rvTwins{slow: testMachine(t, chip), fast: testMachine(t, chip)}
	build(tw.slow)
	build(tw.fast)
	tw.fast.SetFastCore(true)
	return tw
}

func (tw *rvTwins) both(f func(m *Machine)) {
	f(tw.slow)
	f(tw.fast)
}

func (tw *rvTwins) diff() string {
	sf, ff := tw.slow.FlightFields(), tw.fast.FlightFields()
	if len(sf) != len(ff) {
		return "flight field count differs"
	}
	for i := range sf {
		if sf[i] != ff[i] {
			return fmt.Sprintf("%s: oracle=%#x fast=%#x", sf[i].Name, sf[i].Val, ff[i].Val)
		}
	}
	if a, b := tw.slow.Meter.Cycles(), tw.fast.Meter.Cycles(); a != b {
		return fmt.Sprintf("meter: oracle=%d fast=%d", a, b)
	}
	sm, err1 := tw.slow.Mem.ReadBytes(0x8000_0000, 0x10000)
	fm, err2 := tw.fast.Mem.ReadBytes(0x8000_0000, 0x10000)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("ram read: %v %v", err1, err2)
	}
	for i := range sm {
		if sm[i] != fm[i] {
			return fmt.Sprintf("ram[0x%x]: oracle=%#x fast=%#x", 0x8000_0000+i, sm[i], fm[i])
		}
	}
	return ""
}

func (tw *rvTwins) run(t *testing.T, budget uint64) Stop {
	t.Helper()
	ss, errS := tw.slow.Run(budget)
	fs, errF := tw.fast.Run(budget)
	if fmt.Sprint(errS) != fmt.Sprint(errF) {
		t.Fatalf("run errors diverge: oracle=%v fast=%v", errS, errF)
	}
	if errS != nil {
		t.Fatalf("run: %v", errS)
	}
	if ss.Reason != fs.Reason || ss.Cause != fs.Cause || fmt.Sprint(ss.Fault) != fmt.Sprint(fs.Fault) {
		t.Fatalf("stops diverge: oracle=%+v fast=%+v", ss, fs)
	}
	if d := tw.diff(); d != "" {
		t.Fatalf("state diverges after run: %s", d)
	}
	return ss
}

// rvWorkload loops over arithmetic, word/byte loads and stores, a call
// and an ecall, forever.
func rvWorkload() *Program {
	a := NewAssembler(0x2000_0000)
	a.Label("top").
		Emit(Li{S0, 0x8000_0100}).
		Emit(Li{A0, 0}).
		Emit(Li{T0, 25}).
		Label("loop").
		BTo(BEQ, T0, Zero, "stores").
		Emit(Add{A0, A0, T0}).
		Emit(Addi{T0, T0, -1}).
		JTo("loop").
		Label("stores").
		Emit(Sw{A0, S0, 0}).
		Emit(Lw{A1, S0, 0}).
		Emit(Sb{A1, S0, 8}).
		Emit(Lbu{A2, S0, 8}).
		Emit(Add{S1, S1, A1}).
		Emit(Ecall{}).
		JTo("top")
	return a.MustAssemble()
}

// setupRvUser loads the workload and configures a user PMP window:
// code executable, a small RAM window writable.
func setupRvUser(m *Machine, p *Program) {
	if err := m.LoadProgram(p); err != nil {
		panic(err)
	}
	code, _ := riscv.EncodeNAPOT(0x2000_0000, 0x10000)
	if err := m.PMP.SetEntry(0, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ANapot), code); err != nil {
		panic(err)
	}
	ram, _ := riscv.EncodeNAPOT(0x8000_0000, 0x400)
	if err := m.PMP.SetEntry(1, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), ram); err != nil {
		panic(err)
	}
	m.PC = p.Base
	m.X[SP] = 0x8000_0300
	m.Priv = PrivUser
}

// runRvQuanta drives timer-preemption quanta like the rvkernel loop:
// re-arm and ResumeUser after every stop.
func (tw *rvTwins) runRvQuanta(t *testing.T, quanta int, reload uint64) {
	t.Helper()
	tw.both(func(m *Machine) { m.Timer.Arm(reload) })
	for q := 0; q < quanta; q++ {
		stop := tw.run(t, 0)
		switch stop.Reason {
		case StopTimer, StopEcall:
			tw.both(func(m *Machine) {
				pc := m.CSR.MEPC
				if stop.Reason == StopEcall {
					pc += 4
				}
				m.Timer.Arm(reload)
				m.ResumeUser(pc)
			})
		case StopFault:
			return
		default:
			t.Fatalf("unexpected stop %v", stop.Reason)
		}
		if d := tw.diff(); d != "" {
			t.Fatalf("state diverges after resume: %s", d)
		}
	}
}

func TestRvFastCoreEquivalenceQuanta(t *testing.T) {
	for _, chip := range riscv.Chips {
		for _, reload := range []uint64{3, 17, 50, 1000} {
			t.Run(fmt.Sprintf("%s/reload%d", chip.Name, reload), func(t *testing.T) {
				tw := newRvTwins(t, chip, func(m *Machine) { setupRvUser(m, rvWorkload()) })
				tw.runRvQuanta(t, 200, reload)
				st := tw.fast.FastStats()
				if st.Hits == 0 || st.Builds == 0 {
					t.Fatalf("fast core never used its cache: %+v", st)
				}
			})
		}
	}
}

func TestRvFastCoreEquivalenceBudget(t *testing.T) {
	tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, rvWorkload()) })
	tw.both(func(m *Machine) { m.Timer.Arm(997) })
	for i := 0; i < 50; i++ {
		stop := tw.run(t, 131)
		if stop.Reason == StopEcall {
			tw.both(func(m *Machine) { m.ResumeUser(m.CSR.MEPC + 4) })
		} else if stop.Reason == StopTimer {
			tw.both(func(m *Machine) {
				m.Timer.Arm(997)
				m.ResumeUser(m.CSR.MEPC)
			})
		}
	}
}

func TestRvFastCoreFaultEquivalence(t *testing.T) {
	a := NewAssembler(0x2000_0000)
	a.Emit(Li{T0, 0x8000_8000}).
		Emit(Li{T1, 0x42}).
		Emit(Sw{T1, T0, 0}).
		Emit(Wfi{})
	p := a.MustAssemble()
	tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, p) })
	stop := tw.run(t, 0)
	if stop.Reason != StopFault || stop.Cause != CauseStoreAccessFault {
		t.Fatalf("stop=%+v, want store access fault", stop)
	}
}

// rvJumpTo assembles a jump to target followed by a WFI.
func rvJumpTo(target uint32) *Program {
	a := NewAssembler(0x2000_0000)
	a.Emit(Li{T0, target}).
		Emit(Jalr{Zero, T0, 0}).
		Emit(Wfi{})
	return a.MustAssemble()
}

func TestRvFastCoreExecDenialEquivalence(t *testing.T) {
	// Jump into a program loaded in RAM, which the PMP leaves
	// non-executable: the block builds, its cover is empty, and the
	// oracle fetch must raise the instruction access fault identically.
	target := NewAssembler(0x8000_0200)
	target.Emit(Wfi{})
	tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) {
		setupRvUser(m, rvJumpTo(0x8000_0200))
		if err := m.LoadProgram(target.MustAssemble()); err != nil {
			t.Fatal(err)
		}
	})
	stop := tw.run(t, 0)
	if stop.Reason != StopFault || stop.Cause != CauseInstrAccessFault {
		t.Fatalf("stop=%+v, want instruction access fault", stop)
	}
	if st := tw.fast.FastStats(); st.SlowDenied == 0 || st.SlowNoBlock != 0 {
		t.Fatalf("fallbacks: %+v, want exec-denied only", st)
	}
}

func TestRvFastCoreNoBlockEquivalence(t *testing.T) {
	// Jump where no block can be built: non-executable RAM holding no
	// program, executable flash holding no program, and mid-instruction.
	// The fast core must slow-step and fault exactly like the oracle.
	for _, tc := range []struct {
		name   string
		target uint32
	}{{"unmapped-denied", 0x8000_0200}, {"unmapped", 0x2000_8000}, {"misaligned", 0x2000_0002}} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, rvJumpTo(tc.target)) })
			stop := tw.run(t, 0)
			if stop.Reason != StopFault || stop.Cause != CauseInstrAccessFault {
				t.Fatalf("stop=%+v, want instruction access fault", stop)
			}
			st := tw.fast.FastStats()
			if st.SlowNoBlock == 0 || st.SlowDenied != 0 {
				t.Fatalf("fallbacks: %+v, want no-block only", st)
			}
			// The program makes no load or store, so no hint is
			// consulted: the oracle fetch checks the PMP directly.
			if st.HintHits+st.HintMisses != 0 {
				t.Fatalf("hints: %+v, want none for a program without loads or stores", st)
			}
		})
	}
}

// TestRvFastCoreInvalidationMidRun is the SetEntry/FlipBits mid-run
// battery for the PMP side.
func TestRvFastCoreInvalidationMidRun(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *Machine)
	}{
		{"setentry", func(m *Machine) {
			// Shrink the RAM window to 64 bytes: the workload's store at
			// +0x100 must fault.
			ram, _ := riscv.EncodeNAPOT(0x8000_0000, 0x40)
			if err := m.PMP.SetEntry(1, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), ram); err != nil {
				panic(err)
			}
		}},
		{"flipbits-cfg", func(m *Machine) {
			// Clear the code entry's mode bits: user execution loses its
			// only execute grant.
			cfg, _ := m.PMP.Entry(0)
			m.PMP.FlipBits(0, cfg, 0)
		}},
		{"flipbits-addr", func(m *Machine) {
			m.PMP.FlipBits(1, 0, 1<<5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, rvWorkload()) })
			tw.both(func(m *Machine) { m.Timer.Arm(40) })
			// Warm the caches through a few quanta.
			stop := tw.run(t, 0)
			for i := 0; i < 5 && stop.Reason != StopFault; i++ {
				tw.both(func(m *Machine) {
					pc := m.CSR.MEPC
					if stop.Reason == StopEcall {
						pc += 4
					}
					m.Timer.Arm(40)
					m.ResumeUser(pc)
				})
				stop = tw.run(t, 0)
			}
			if st := tw.fast.FastStats(); st.Hits == 0 {
				t.Fatal("cache never warmed")
			}
			// Corrupt identically, resume, require identical behaviour.
			tw.both(tc.mut)
			tw.both(func(m *Machine) {
				m.Timer.Arm(40)
				m.ResumeUser(m.CSR.MEPC)
			})
			for q := 0; q < 20; q++ {
				stop = tw.run(t, 0)
				if stop.Reason == StopFault {
					break
				}
				tw.both(func(m *Machine) {
					pc := m.CSR.MEPC
					if stop.Reason == StopEcall {
						pc += 4
					}
					m.Timer.Arm(40)
					m.ResumeUser(pc)
				})
			}
		})
	}
}

func TestRvFastCoreDropTickParity(t *testing.T) {
	// DropNext exercises the CLINT's no-reload expiry path, where a
	// swallowed tick is followed by a normally-latched one — the case
	// that forbids naive Advance batching. Both cores must agree on
	// when the post-drop tick lands.
	tw := newRvTwins(t, riscv.ChipLiteX, func(m *Machine) { setupRvUser(m, rvWorkload()) })
	tw.both(func(m *Machine) {
		m.Timer.Arm(50)
		m.Timer.DropNext()
	})
	stop := tw.run(t, 0)
	for i := 0; i < 10 && stop.Reason == StopEcall; i++ {
		tw.both(func(m *Machine) { m.ResumeUser(m.CSR.MEPC + 4) })
		stop = tw.run(t, 0)
	}
	if stop.Reason != StopTimer {
		t.Fatalf("stop=%v, want the post-drop timer tick", stop.Reason)
	}
}

// FuzzRvFastCoreEquivalence interleaves PMP corruption, timer glitches
// and stepping on the twin machines, mirroring FuzzAccessMapEquivalence.
func FuzzRvFastCoreEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x02, 0x13, 0x03})
	f.Add([]byte{0xff, 0x00, 0x81, 0x7c, 0x22, 0x10, 0x05, 0x91})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		tw := &rvTwins{slow: rvFuzzMachine(), fast: rvFuzzMachine()}
		tw.fast.SetFastCore(true)
		tw.both(func(m *Machine) { m.Timer.Arm(60) })
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op % 5 {
			case 0, 1: // run
				ss, errS := tw.slow.Run(uint64(op)/4 + 1)
				fs, errF := tw.fast.Run(uint64(op)/4 + 1)
				if fmt.Sprint(errS) != fmt.Sprint(errF) {
					t.Fatalf("op %d: run errors diverge: %v vs %v", i, errS, errF)
				}
				if errS == nil && (ss.Reason != fs.Reason || ss.Cause != fs.Cause) {
					t.Fatalf("op %d: stops diverge: %+v vs %+v", i, ss, fs)
				}
				if errS == nil && ss.Reason != StopBudget {
					tw.both(func(m *Machine) {
						m.Timer.Arm(60)
						m.ResumeUser(m.CSR.MEPC)
					})
				}
			case 2: // corrupt a PMP entry
				var cfgXor uint8
				var addrXor uint32
				if i+2 < len(ops) {
					cfgXor = ops[i+1]
					addrXor = uint32(ops[i+2]) << 3
				}
				entry := int(op/5) % tw.slow.PMP.Chip.Entries
				tw.both(func(m *Machine) { m.PMP.FlipBits(entry, cfgXor, addrXor) })
			case 3:
				tw.both(func(m *Machine) { m.Timer.Jitter(int64(op) - 128) })
			case 4:
				tw.both(func(m *Machine) { m.Timer.DropNext() })
			}
			if d := tw.diff(); d != "" {
				t.Fatalf("op %d (0x%02x): %s", i, op, d)
			}
		}
	})
}

func rvFuzzMachine() *Machine {
	mem := physmem.NewMemory()
	if _, err := mem.Map("flash", 0x2000_0000, 0x10000); err != nil {
		panic(err)
	}
	if _, err := mem.Map("ram", 0x8000_0000, 0x10000); err != nil {
		panic(err)
	}
	m := NewMachine(mem, riscv.ChipHiFive1)
	setupRvUser(m, rvWorkload())
	return m
}

func TestRvProgAtManyPrograms(t *testing.T) {
	m := testMachine(t, riscv.ChipHiFive1)
	for i := 0; i < 512; i++ {
		base := 0x2000_4000 + uint32(i)*16
		a := NewAssembler(base)
		a.Emit(Wfi{})
		if err := m.LoadProgram(a.MustAssemble()); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAssembler(0x2000_0100)
	a.Emit(Li{A0, 7}).Emit(Addi{A0, A0, 35}).Emit(Wfi{})
	p := a.MustAssemble()
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	m.PC = p.Base
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopWFI || m.X[A0] != 42 {
		t.Fatalf("stop=%v a0=%d", stop.Reason, m.X[A0])
	}
}
