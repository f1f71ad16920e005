package armv7m

import (
	"fmt"
	"testing"

	"ticktock/internal/mpu"
)

// twins is a differential harness: the same program on two identical
// machines, one running the byte-scan oracle core, one the block-cache
// fast core. Every Run and every mid-run corruption is applied to both,
// and the full architectural state must stay byte-identical.
type twins struct {
	slow, fast *Machine
}

func newTwins(t *testing.T, build func(m *Machine)) *twins {
	t.Helper()
	tw := &twins{slow: testMachine(t), fast: testMachine(t)}
	build(tw.slow)
	build(tw.fast)
	tw.fast.SetFastCore(true)
	if tw.slow.FastCore() || !tw.fast.FastCore() {
		t.Fatal("fast-core flag wiring broken")
	}
	return tw
}

// diff returns a description of the first architectural divergence
// between the twins, or "".
func (tw *twins) diff() string {
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
	if a, b := tw.slow.Fault, tw.fast.Fault; a != b {
		return fmt.Sprintf("fault status: oracle=%+v fast=%+v", a, b)
	}
	sm, err1 := tw.slow.Mem.ReadBytes(0x2000_0000, 0x10000)
	fm, err2 := tw.fast.Mem.ReadBytes(0x2000_0000, 0x10000)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("ram read: %v %v", err1, err2)
	}
	for i := range sm {
		if sm[i] != fm[i] {
			return fmt.Sprintf("ram[0x%x]: oracle=%#x fast=%#x", 0x2000_0000+i, sm[i], fm[i])
		}
	}
	return ""
}

// run drives both machines one Run call and requires identical stops
// and identical state.
func (tw *twins) run(t *testing.T, budget uint64) *Stop {
	t.Helper()
	ss, errS := tw.slow.Run(budget)
	fs, errF := tw.fast.Run(budget)
	if fmt.Sprint(errS) != fmt.Sprint(errF) {
		t.Fatalf("run errors diverge: oracle=%v fast=%v", errS, errF)
	}
	if errS != nil {
		return nil
	}
	if ss.Reason != fs.Reason || ss.SVCNum != fs.SVCNum || fmt.Sprint(ss.Fault) != fmt.Sprint(fs.Fault) {
		t.Fatalf("stops diverge: oracle=%+v fast=%+v", ss, fs)
	}
	if d := tw.diff(); d != "" {
		t.Fatalf("state diverges after run: %s", d)
	}
	return ss
}

// both applies the same mutation to both machines.
func (tw *twins) both(f func(m *Machine)) {
	f(tw.slow)
	f(tw.fast)
}

// workload assembles a program exercising loops, loads, stores, byte
// ops, calls and SVC; it runs forever under SysTick preemption.
func workload(base uint32) *Program {
	a := NewAssembler(base)
	a.Label("top").
		Emit(MovImm{R4, 0x2000_0100}).
		Emit(MovImm{R0, 0}).
		Emit(MovImm{R1, 25}).
		Label("loop").
		Emit(CmpImm{R1, 0}).
		BTo(EQ, "stores").
		Emit(Add{R0, R0, R1}).
		Emit(SubImm{R1, R1, 1}).
		BTo(AL, "loop").
		Label("stores").
		Emit(Str{R0, R4, 0}).
		Emit(Ldr{R2, R4, 0}).
		Emit(Strb{R2, R4, 8}).
		Emit(Ldrb{R3, R4, 8}).
		Emit(Add{R5, R5, R2}).
		Emit(SVC{Imm: 7}).
		BTo(AL, "top")
	return a.MustAssemble()
}

// runQuanta drives preemption-quantum cycles: each tick stop re-arms
// the timer and exception-returns back into the program, each SVC stop
// exception-returns immediately — a miniature of the kernel loop.
func (tw *twins) runQuanta(t *testing.T, quanta int, reload uint32) {
	t.Helper()
	tw.both(func(m *Machine) { m.Tick.Arm(reload) })
	for q := 0; q < quanta; q++ {
		stop := tw.run(t, 0)
		switch stop.Reason {
		case StopPreempted:
			tw.both(func(m *Machine) { m.Tick.Arm(reload) })
		case StopSyscall:
		case StopFault:
			return
		default:
			t.Fatalf("unexpected stop %v", stop.Reason)
		}
		tw.both(func(m *Machine) {
			if err := m.exceptionReturn(m.CPU.LR); err != nil {
				t.Fatal(err)
			}
		})
		if d := tw.diff(); d != "" {
			t.Fatalf("state diverges after resume: %s", d)
		}
	}
}

func setupUser(m *Machine, prog *Program) {
	if err := m.LoadProgram(prog); err != nil {
		panic(err)
	}
	m.CPU.PC = prog.Base
	m.MPU.CtrlEnable = true
	if err := m.MPU.WriteRegion(2, 0x0000_0000, mkRASR(4096, 0, mpu.ReadExecuteOnly, true)); err != nil {
		panic(err)
	}
	if err := m.MPU.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		panic(err)
	}
	m.CPU.Control = ControlNPriv | ControlSPSel
	m.CPU.PSP = 0x2000_0300
}

func TestFastCoreEquivalenceQuanta(t *testing.T) {
	for _, reload := range []uint32{3, 17, 50, 1000} {
		t.Run(fmt.Sprintf("reload%d", reload), func(t *testing.T) {
			tw := newTwins(t, func(m *Machine) { setupUser(m, workload(0x100)) })
			tw.runQuanta(t, 200, reload)
			st := tw.fast.FastStats()
			if st.Hits == 0 || st.Builds == 0 {
				t.Fatalf("fast core never used its cache: %+v", st)
			}
		})
	}
}

func TestFastCoreEquivalenceBudget(t *testing.T) {
	// Budget stops must land on the same instruction. Use prime budgets
	// so they land mid-block.
	tw := newTwins(t, func(m *Machine) { setupUser(m, workload(0x100)) })
	tw.both(func(m *Machine) { m.Tick.Arm(997) })
	for i := 0; i < 50; i++ {
		stop := tw.run(t, 131)
		if stop.Reason == StopSyscall || stop.Reason == StopPreempted {
			tw.both(func(m *Machine) {
				if err := m.exceptionReturn(m.CPU.LR); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestFastCoreFaultEquivalence(t *testing.T) {
	// A store outside the user window must produce an identical
	// MemManage fault (MMFAR, DACCVIOL, stacked frame) on both cores.
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 0x2000_8000}).
		Emit(MovImm{R1, 0x41}).
		Emit(Str{R1, R0, 0}).
		Emit(WFI{})
	prog := a.MustAssemble()
	tw := newTwins(t, func(m *Machine) { setupUser(m, prog) })
	stop := tw.run(t, 0)
	if stop.Reason != StopFault {
		t.Fatalf("stop=%v, want fault", stop.Reason)
	}
}

func TestFastCoreExecDenialEquivalence(t *testing.T) {
	// Jump past the executable window: the fetch must raise IACCVIOL
	// identically. The workload's code sits in a 4K execute region;
	// branch to 0x2000 (mapped flash, not executable for user).
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 0x2000}).
		Emit(BX{R0}).
		Emit(WFI{})
	prog := a.MustAssemble()
	tw := newTwins(t, func(m *Machine) { setupUser(m, prog) })
	stop := tw.run(t, 0)
	if stop.Reason != StopFault {
		t.Fatalf("stop=%v, want fault", stop.Reason)
	}
}

// corruptions is the mid-run invalidation battery: every mutation that
// must drop cached execute covers and load/store hints.
func TestFastCoreInvalidationMidRun(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *Machine)
	}{
		{"writeregion", func(m *Machine) {
			// Shrink then restore the user RAM window.
			if err := m.MPU.WriteRegion(0, 0x2000_0000, mkRASR(512, 0, mpu.ReadWriteOnly, true)); err != nil {
				panic(err)
			}
		}},
		{"flipbits-rasr", func(m *Machine) {
			// Flip the enable bit of the code region: user execution
			// must fault at the next fetch on both cores.
			m.MPU.FlipBits(2, 0, RASREnable)
		}},
		{"flipbits-rbar", func(m *Machine) {
			m.MPU.FlipBits(2, 1<<9, 0)
		}},
		{"clearregion", func(m *Machine) {
			if err := m.MPU.ClearRegion(0); err != nil {
				panic(err)
			}
		}},
		{"restore", func(m *Machine) {
			snap := m.MPU.Snapshot()
			m.MPU.FlipBits(2, 0, RASREnable)
			m.MPU.Restore(snap)
		}},
		{"ctrl-toggle", func(m *Machine) {
			// Exported control bit flipped without a WriteRegion: the
			// access-map cache compares CtrlEnable, so the map changes.
			m.MPU.CtrlEnable = false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tw := newTwins(t, func(m *Machine) { setupUser(m, workload(0x100)) })
			tw.both(func(m *Machine) { m.Tick.Arm(40) })
			// Warm the caches.
			stop := tw.run(t, 0)
			for stop.Reason == StopSyscall {
				tw.both(func(m *Machine) {
					if err := m.exceptionReturn(m.CPU.LR); err != nil {
						t.Fatal(err)
					}
				})
				stop = tw.run(t, 0)
			}
			if st := tw.fast.FastStats(); st.Hits == 0 && st.Builds == 0 {
				t.Fatal("cache never warmed")
			}
			// Corrupt both machines identically mid-run, then resume and
			// require identical behaviour (fault or progress).
			tw.both(tc.mut)
			tw.both(func(m *Machine) {
				if m.CPU.Mode == ModeHandler {
					if err := m.exceptionReturn(m.CPU.LR); err != nil {
						t.Fatal(err)
					}
				}
				m.Tick.Arm(40)
			})
			for q := 0; q < 20; q++ {
				stop = tw.run(t, 0)
				if stop.Reason == StopFault {
					break
				}
				tw.both(func(m *Machine) {
					if err := m.exceptionReturn(m.CPU.LR); err != nil {
						t.Fatal(err)
					}
					m.Tick.Arm(40)
				})
			}
		})
	}
}

func TestFastCoreHintDropsOnGenerationBump(t *testing.T) {
	// Directed hint-invalidation check: warm the write hint, revoke
	// write permission, and require the very next store to fault
	// identically on both cores.
	a := NewAssembler(0x100)
	a.Emit(MovImm{R4, 0x2000_0100}).
		Label("loop").
		Emit(Str{R0, R4, 0}).
		Emit(AddImm{R0, R0, 1}).
		Emit(SVC{Imm: 1}).
		BTo(AL, "loop")
	prog := a.MustAssemble()
	tw := newTwins(t, func(m *Machine) { setupUser(m, prog) })
	// Warm: run until the first SVC (one store retired).
	stop := tw.run(t, 0)
	if stop.Reason != StopSyscall {
		t.Fatalf("stop=%v", stop.Reason)
	}
	if st := tw.fast.FastStats(); st.HintHits+st.HintMisses == 0 {
		t.Fatal("store never consulted the hint cache")
	}
	// Revoke the RAM window's write permission.
	tw.both(func(m *Machine) {
		if err := m.MPU.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadOnly, true)); err != nil {
			t.Fatal(err)
		}
		if err := m.exceptionReturn(m.CPU.LR); err != nil {
			t.Fatal(err)
		}
	})
	stop = tw.run(t, 0)
	if stop.Reason != StopFault {
		t.Fatalf("revoked store did not fault (stop=%v): stale hint authorized the access", stop.Reason)
	}
}

// FuzzFastCoreEquivalence interleaves random register corruption,
// timer glitches and stepping on the twin machines — the blockstep
// mirror of FuzzAccessMapEquivalence. Any state divergence fails.
func FuzzFastCoreEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x02, 0x13, 0x03})
	f.Add([]byte{0xff, 0x00, 0x81, 0x7c, 0x22, 0x10, 0x05, 0x91})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		tw := &twins{slow: fuzzMachine(), fast: fuzzMachine()}
		tw.fast.SetFastCore(true)
		tw.both(func(m *Machine) { m.Tick.Arm(60) })
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op % 5 {
			case 0, 1: // run a quantum
				ss, errS := tw.slow.Run(uint64(op)/4 + 1)
				fs, errF := tw.fast.Run(uint64(op)/4 + 1)
				if fmt.Sprint(errS) != fmt.Sprint(errF) {
					t.Fatalf("op %d: run errors diverge: %v vs %v", i, errS, errF)
				}
				if errS == nil && (ss.Reason != fs.Reason || fmt.Sprint(ss.Fault) != fmt.Sprint(fs.Fault)) {
					t.Fatalf("op %d: stops diverge: %+v vs %+v", i, ss, fs)
				}
				if errS == nil && ss.Reason != StopBudget {
					tw.both(func(m *Machine) {
						if m.CPU.Mode == ModeHandler {
							m.exceptionReturn(m.CPU.LR)
						}
						m.Tick.Arm(60)
					})
				}
			case 2: // corrupt an MPU region
				var rbarXor, rasrXor uint32
				if i+2 < len(ops) {
					rbarXor = uint32(ops[i+1]) << 7
					rasrXor = uint32(ops[i+2]) << 1
				}
				region := int(op/5) % NumRegions
				tw.both(func(m *Machine) { m.MPU.FlipBits(region, rbarXor, rasrXor) })
			case 3: // timer jitter
				tw.both(func(m *Machine) { m.Tick.Jitter(int64(op) - 128) })
			case 4: // drop the next tick
				tw.both(func(m *Machine) { m.Tick.DropNext() })
			}
			if d := tw.diff(); d != "" {
				t.Fatalf("op %d (0x%02x): %s", i, op, d)
			}
		}
	})
}

// fuzzMachine builds a machine without *testing.T (f.Fuzz closures get
// their own t; panics surface as failures anyway).
func fuzzMachine() *Machine {
	mem := NewMemory()
	if _, err := mem.Map("flash", 0x0000_0000, 0x10000); err != nil {
		panic(err)
	}
	if _, err := mem.Map("ram", 0x2000_0000, 0x10000); err != nil {
		panic(err)
	}
	m := NewMachine(mem)
	setupUser(m, workload(0x100))
	return m
}

func TestProgAtManyPrograms(t *testing.T) {
	// The fetch path must find the right program among many — the
	// binary-search replacement for the linear scan. Load 512 one-WFI
	// programs plus the real one and run it.
	m := testMachine(t)
	for i := 0; i < 512; i++ {
		base := 0x4000 + uint32(i)*16
		a := NewAssembler(base)
		a.Emit(WFI{})
		if err := m.LoadProgram(a.MustAssemble()); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 7}).Emit(AddImm{R0, R0, 35}).Emit(WFI{})
	prog := a.MustAssemble()
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	m.CPU.PC = prog.Base
	m.CPU.MSP = 0x2000_FF00
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopIdle || m.CPU.R[R0] != 42 {
		t.Fatalf("stop=%v r0=%d", stop.Reason, m.CPU.R[R0])
	}
	// Unmapped and misaligned addresses still miss.
	if m.progAt(0x3fff) != nil || m.progAt(0x4000+512*16) != nil {
		t.Fatal("progAt returned a program outside every range")
	}
	if p := m.progAt(0x101); p == nil || p.At(0x101) != nil {
		t.Fatal("misaligned address must resolve to no instruction")
	}
}
