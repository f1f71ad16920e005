// Package corebench builds realistic preemptive workloads for measuring
// the block-cache fast core against the byte-scan oracle core. The
// machines mirror what a kernel actually configures — multiple
// protection regions including decoys and subregion carve-outs, an
// unprivileged thread, an armed tick, a supervisor loop resuming across
// quanta and syscalls — so the measured ratio reflects end-to-end
// stepping cost, not a cherry-picked straight-line loop.
//
// Both cores execute the identical instruction stream and charge the
// identical simulated cycles (the difftest layer proves that); corebench
// only measures how much wall time each core needs to do it.
package corebench

import (
	"fmt"
	"runtime"
	"time"

	"ticktock/internal/armv7m"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
)

// Result is one measured run.
type Result struct {
	SimCycles uint64
	Elapsed   time.Duration
}

// NsPerKCycle is wall nanoseconds per thousand simulated cycles — the
// per-work cost that the speedup ratio is formed from.
func (r Result) NsPerKCycle() float64 {
	if r.SimCycles == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) * 1000 / float64(r.SimCycles)
}

// Reload is the tick quantum used by the workloads: long enough that a
// quantum spans many blocks, short enough that preemption and re-entry
// costs stay in the measurement.
const Reload = 4000

// rasr builds an enabled v7-M RASR for a power-of-two size.
func rasr(sizePow2 uint32, srd uint8, perms mpu.Permissions) uint32 {
	var sz uint32
	for 1<<(sz+1) != sizePow2 {
		sz++
		if sz > 31 {
			panic("corebench: bad region size")
		}
	}
	return sz<<armv7m.RASRSizeShift | uint32(srd)<<armv7m.RASRSRDShift |
		armv7m.EncodeAP(perms) | armv7m.RASREnable
}

// armProgram is the shared thread body: an outer service loop doing a
// mixed inner loop of loads, stores, byte accesses and ALU work over the
// RAM window, a call into a leaf routine, a touch of the second data
// window, and one syscall per outer iteration.
func armProgram(base uint32) *armv7m.Program {
	a := armv7m.NewAssembler(base)
	a.Emit(armv7m.MovImm{Rd: armv7m.R4, Imm: 0x2000_0100}).
		Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 0x2000_0810}).
		Label("outer").
		Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 48}).
		Label("inner").
		Emit(armv7m.Str{Rt: armv7m.R2, Rn: armv7m.R4, Imm: 0}).
		Emit(armv7m.Ldr{Rt: armv7m.R3, Rn: armv7m.R4, Imm: 0}).
		Emit(armv7m.Add{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R3}).
		Emit(armv7m.Strb{Rt: armv7m.R0, Rn: armv7m.R4, Imm: 8}).
		Emit(armv7m.Ldrb{Rt: armv7m.R6, Rn: armv7m.R4, Imm: 8}).
		Emit(armv7m.Eor{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R6}).
		Emit(armv7m.Mul{Rd: armv7m.R7, Rn: armv7m.R3, Rm: armv7m.R3}).
		Emit(armv7m.Add{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R7}).
		Emit(armv7m.Str{Rt: armv7m.R0, Rn: armv7m.R4, Imm: 16}).
		Emit(armv7m.Ldr{Rt: armv7m.R3, Rn: armv7m.R4, Imm: 16}).
		Emit(armv7m.And{Rd: armv7m.R6, Rn: armv7m.R3, Rm: armv7m.R0}).
		Emit(armv7m.Orr{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R6}).
		Emit(armv7m.LsrImm{Rd: armv7m.R7, Rn: armv7m.R0, Shift: 5}).
		Emit(armv7m.Add{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R7}).
		Emit(armv7m.Strb{Rt: armv7m.R3, Rn: armv7m.R4, Imm: 24}).
		Emit(armv7m.Ldrb{Rt: armv7m.R6, Rn: armv7m.R4, Imm: 24}).
		Emit(armv7m.Eor{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R6}).
		Emit(armv7m.Str{Rt: armv7m.R0, Rn: armv7m.R4, Imm: 32}).
		Emit(armv7m.Ldr{Rt: armv7m.R3, Rn: armv7m.R4, Imm: 32}).
		Emit(armv7m.Mul{Rd: armv7m.R7, Rn: armv7m.R3, Rm: armv7m.R0}).
		Emit(armv7m.Sub{Rd: armv7m.R0, Rn: armv7m.R7, Rm: armv7m.R3}).
		Emit(armv7m.LslImm{Rd: armv7m.R6, Rn: armv7m.R0, Shift: 1}).
		Emit(armv7m.Eor{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R6}).
		Emit(armv7m.SubImm{Rd: armv7m.R2, Rn: armv7m.R2, Imm: 1}).
		Emit(armv7m.CmpImm{Rn: armv7m.R2, Imm: 0}).
		BTo(armv7m.NE, "inner").
		BLTo("leaf").
		Emit(armv7m.Str{Rt: armv7m.R0, Rn: armv7m.R5, Imm: 0}).
		Emit(armv7m.Ldr{Rt: armv7m.R1, Rn: armv7m.R5, Imm: 0}).
		Emit(armv7m.SVC{Imm: 1}).
		BTo(armv7m.AL, "outer").
		Label("leaf").
		Emit(armv7m.AddImm{Rd: armv7m.R0, Rn: armv7m.R0, Imm: 7}).
		Emit(armv7m.LslImm{Rd: armv7m.R1, Rn: armv7m.R0, Shift: 3}).
		Emit(armv7m.Eor{Rd: armv7m.R0, Rn: armv7m.R0, Rm: armv7m.R1}).
		Emit(armv7m.BXLR{})
	return a.MustAssemble()
}

// NewARM builds the ARM workload machine: kernel-like MPU layout (code
// region, two data windows — one with an SRD carve-out — plus decoy
// regions the lookup has to step over), unprivileged thread on PSP.
func NewARM(fast bool) *armv7m.Machine {
	mem := armv7m.NewMemory()
	if _, err := mem.Map("flash", 0, 0x10000); err != nil {
		panic(err)
	}
	if _, err := mem.Map("ram", 0x2000_0000, 0x10000); err != nil {
		panic(err)
	}
	m := armv7m.NewMachine(mem)
	m.SetFastCore(fast)
	if err := m.LoadProgram(armProgram(0x100)); err != nil {
		panic(err)
	}
	mpuWrites := []struct {
		region int
		rbar   uint32
		rasr   uint32
	}{
		{2, 0x0000_0000, rasr(4096, 0, mpu.ReadExecuteOnly)},  // code
		{0, 0x2000_0000, rasr(1024, 0, mpu.ReadWriteOnly)},    // data
		{1, 0x2000_0800, rasr(2048, 1<<7, mpu.ReadWriteOnly)}, // data 2, top carved
		{3, 0x0000_4000, rasr(1024, 0, mpu.ReadOnly)},         // decoy
		{4, 0x2000_4000, rasr(1024, 0, mpu.NoAccess)},         // decoy
		{5, 0x0000_8000, rasr(4096, 1<<0|1<<5, mpu.ReadOnly)}, // decoy
	}
	m.MPU.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
	for _, w := range mpuWrites {
		if err := m.MPU.WriteRegion(w.region, w.rbar, w.rasr); err != nil {
			panic(err)
		}
	}
	m.CPU.PC = 0x100
	m.CPU.MSP = 0x2000_7F00
	m.CPU.PSP = 0x2000_0300
	m.CPU.Control = armv7m.ControlNPriv | armv7m.ControlSPSel
	return m
}

// RunARM drives the machine for the given number of quanta the way a
// kernel does — re-arming the tick after each preemption, servicing
// syscalls by resuming the thread — and returns the simulated cycles
// retired.
func RunARM(m *armv7m.Machine, quanta int) uint64 {
	start := m.Meter.Cycles()
	m.Tick.Arm(Reload)
	for q := 0; q < quanta; {
		stop, err := m.Run(0)
		if err != nil {
			panic(err)
		}
		switch stop.Reason {
		case armv7m.StopPreempted:
			m.Tick.Arm(Reload)
			q++
		case armv7m.StopSyscall:
		default:
			panic(fmt.Sprintf("corebench: unexpected ARM stop %v", stop.Reason))
		}
		if err := m.SwitchToUser(); err != nil {
			panic(err)
		}
	}
	return m.Meter.Cycles() - start
}

// rvProgram mirrors the ARM thread body on RV32.
func rvProgram(base uint32) *rv32.Program {
	a := rv32.NewAssembler(base)
	a.Emit(rv32.Li{Rd: rv32.S0, Imm: 0x8000_0100}).
		Emit(rv32.Li{Rd: rv32.S1, Imm: 0x8000_0810}).
		Label("outer").
		Emit(rv32.Li{Rd: rv32.T0, Imm: 48}).
		Label("inner").
		Emit(rv32.Sw{Rs2: rv32.T0, Rs1: rv32.S0, Off: 0}).
		Emit(rv32.Lw{Rd: rv32.T1, Rs1: rv32.S0, Off: 0}).
		Emit(rv32.Add{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T1}).
		Emit(rv32.Sb{Rs2: rv32.A0, Rs1: rv32.S0, Off: 8}).
		Emit(rv32.Lbu{Rd: rv32.T2, Rs1: rv32.S0, Off: 8}).
		Emit(rv32.Xor{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T2}).
		Emit(rv32.Mul{Rd: rv32.T3, Rs1: rv32.T1, Rs2: rv32.T1}).
		Emit(rv32.Add{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T3}).
		Emit(rv32.Sw{Rs2: rv32.A0, Rs1: rv32.S0, Off: 16}).
		Emit(rv32.Lw{Rd: rv32.T1, Rs1: rv32.S0, Off: 16}).
		Emit(rv32.And{Rd: rv32.T2, Rs1: rv32.T1, Rs2: rv32.A0}).
		Emit(rv32.Or{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T2}).
		Emit(rv32.Srli{Rd: rv32.T3, Rs1: rv32.A0, Shamt: 5}).
		Emit(rv32.Add{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T3}).
		Emit(rv32.Sb{Rs2: rv32.T1, Rs1: rv32.S0, Off: 24}).
		Emit(rv32.Lbu{Rd: rv32.T2, Rs1: rv32.S0, Off: 24}).
		Emit(rv32.Xor{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T2}).
		Emit(rv32.Sw{Rs2: rv32.A0, Rs1: rv32.S0, Off: 32}).
		Emit(rv32.Lw{Rd: rv32.T1, Rs1: rv32.S0, Off: 32}).
		Emit(rv32.Mul{Rd: rv32.T3, Rs1: rv32.T1, Rs2: rv32.A0}).
		Emit(rv32.Sub{Rd: rv32.A0, Rs1: rv32.T3, Rs2: rv32.T1}).
		Emit(rv32.Slli{Rd: rv32.T2, Rs1: rv32.A0, Shamt: 1}).
		Emit(rv32.Xor{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.T2}).
		Emit(rv32.Addi{Rd: rv32.T0, Rs1: rv32.T0, Imm: -1}).
		BTo(rv32.BNE, rv32.T0, rv32.Zero, "inner").
		CallTo("leaf").
		Emit(rv32.Sw{Rs2: rv32.A0, Rs1: rv32.S1, Off: 0}).
		Emit(rv32.Lw{Rd: rv32.A1, Rs1: rv32.S1, Off: 0}).
		Emit(rv32.Ecall{}).
		JTo("outer").
		Label("leaf").
		Emit(rv32.Addi{Rd: rv32.A0, Rs1: rv32.A0, Imm: 7}).
		Emit(rv32.Slli{Rd: rv32.A1, Rs1: rv32.A0, Shamt: 3}).
		Emit(rv32.Xor{Rd: rv32.A0, Rs1: rv32.A0, Rs2: rv32.A1}).
		Emit(rv32.Jalr{Rd: rv32.Zero, Rs1: rv32.RA, Off: 0})
	return a.MustAssemble()
}

// NewRV builds the RV32 workload machine with the analogous PMP layout:
// a deny decoy shadowing part of RAM, the code and data windows, and a
// locked read-only flash entry the matcher must walk past.
func NewRV(fast bool) *rv32.Machine {
	mem := physmem.NewMemory()
	if _, err := mem.Map("flash", 0x2000_0000, 0x10000); err != nil {
		panic(err)
	}
	if _, err := mem.Map("ram", 0x8000_0000, 0x10000); err != nil {
		panic(err)
	}
	m := rv32.NewMachine(mem, riscv.ChipHiFive1)
	m.SetFastCore(fast)
	if err := m.LoadProgram(rvProgram(0x2000_0000)); err != nil {
		panic(err)
	}
	set := func(i int, cfg uint8, base, size uint32) {
		reg, err := riscv.EncodeNAPOT(base, size)
		if err != nil {
			panic(err)
		}
		if err := m.PMP.SetEntry(i, cfg, reg); err != nil {
			panic(err)
		}
	}
	// Kernel guard entries occupy the low-numbered slots: PMP priority is
	// lowest-index-first, so deny/lock rules must precede app entries —
	// the layout real kernels use. The oracle walks past them on every
	// check; the fast core's hints and block cover skip the walk.
	set(0, riscv.ANapot<<riscv.CfgAShift, 0x8000_4000, 64)                            // kernel stack guard (deny)
	set(1, riscv.CfgL|riscv.EncodeCfg(mpu.ReadOnly, riscv.ANapot), 0x2000_8000, 4096) // locked flash protect
	set(2, riscv.ANapot<<riscv.CfgAShift, 0x8000_4100, 64)                            // grant-region guard (deny)
	set(3, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ANapot), 0x2000_0000, 4096)     // app code
	set(4, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), 0x8000_0000, 1024)       // app data
	set(5, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), 0x8000_0800, 1024)       // app ipc window
	m.X[rv32.SP] = 0x8000_0300
	return m
}

// RunRV drives the RV32 machine for the given number of quanta.
func RunRV(m *rv32.Machine, quanta int) uint64 {
	start := m.Meter.Cycles()
	m.Timer.Arm(Reload)
	m.ResumeUser(0x2000_0000)
	for q := 0; q < quanta; {
		stop, err := m.Run(0)
		if err != nil {
			panic(err)
		}
		switch stop.Reason {
		case rv32.StopTimer:
			m.Timer.Arm(Reload)
			q++
			m.ResumeUser(m.CSR.MEPC)
		case rv32.StopEcall:
			m.ResumeUser(m.CSR.MEPC + 4)
		default:
			panic(fmt.Sprintf("corebench: unexpected RV32 stop %v", stop.Reason))
		}
	}
	return m.Meter.Cycles() - start
}

// Runner drives a persistent workload machine, so repeated measurements
// time steady-state stepping cost rather than machine construction: the
// thread bodies loop forever and the supervisor loops resume cleanly, so
// one machine serves any number of timed runs. Measuring on fresh
// machines instead would bias the ratio — setup cost amortizes over far
// less wall time on the fast core than on the oracle.
type Runner struct {
	run func(quanta int) uint64
}

// NewARMRunner builds a persistent ARM workload runner.
func NewARMRunner(fast bool) Runner {
	m := NewARM(fast)
	return Runner{run: func(q int) uint64 { return RunARM(m, q) }}
}

// NewRVRunner builds a persistent RV32 workload runner.
func NewRVRunner(fast bool) Runner {
	m := NewRV(fast)
	return Runner{run: func(q int) uint64 { return RunRV(m, q) }}
}

// Measure times one run of the given number of quanta.
func (r Runner) Measure(quanta int) Result {
	start := time.Now()
	cycles := r.run(quanta)
	return Result{SimCycles: cycles, Elapsed: time.Since(start)}
}

// trialQuanta is the length of one timed Speedup trial: 800 quanta is
// about 3.3M simulated cycles, tens of milliseconds on the fast core and
// several times that on the oracle, so a scheduler tick or a GC cycle
// landing in a trial moves its time by a few percent, not by the
// verdict.
const trialQuanta = 800

// Speedup measures both cores best-of-trials on one port and returns the
// oracle result, the fast result, and the wall-time-per-cycle ratio
// (oracle / fast; higher is better for the fast core). Each trial runs
// trialQuanta quanta after a forced GC, so no trial pays for the
// previous one's garbage. Trials are interleaved slow/fast so drifting
// machine load hits both cores alike, and the minimum per core is kept:
// on a contended box contention only ever adds time, so the per-core
// minimum is the closest observation to the true cost.
func Speedup(newRunner func(fast bool) Runner, trials int) (slow, fast Result, ratio float64) {
	rs, rf := newRunner(false), newRunner(true)
	// Warm both machines so cold caches and first-run allocations drop
	// out of the timed trials.
	rs.Measure(trialQuanta/4 + 1)
	rf.Measure(trialQuanta/4 + 1)
	for i := 0; i < trials; i++ {
		runtime.GC()
		if r := rs.Measure(trialQuanta); i == 0 || r.NsPerKCycle() < slow.NsPerKCycle() {
			slow = r
		}
		runtime.GC()
		if r := rf.Measure(trialQuanta); i == 0 || r.NsPerKCycle() < fast.NsPerKCycle() {
			fast = r
		}
	}
	if fast.NsPerKCycle() > 0 {
		ratio = slow.NsPerKCycle() / fast.NsPerKCycle()
	}
	return slow, fast, ratio
}
