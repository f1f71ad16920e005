package armv7m

import (
	"errors"
	"testing"

	"ticktock/internal/mpu"
)

// testMachine builds a machine with 64K flash at 0 and 64K RAM at
// 0x20000000, MPU disabled.
func testMachine(t *testing.T) *Machine {
	t.Helper()
	mem := NewMemory()
	if _, err := mem.Map("flash", 0x0000_0000, 0x10000); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Map("ram", 0x2000_0000, 0x10000); err != nil {
		t.Fatal(err)
	}
	return NewMachine(mem)
}

// loadAndStart loads prog and points the PC at its base in privileged
// thread mode on MSP.
func loadAndStart(t *testing.T, m *Machine, prog *Program) {
	t.Helper()
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	m.CPU.PC = prog.Base
	m.CPU.MSP = 0x2000_FFF0
}

func TestMachineArithmeticAndBranches(t *testing.T) {
	m := testMachine(t)
	// Compute sum 1..5 with a loop, then WFI.
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 0}). // sum
				Emit(MovImm{R1, 5}). // i
				Label("loop").
				Emit(CmpImm{R1, 0}).
				BTo(EQ, "done").
				Emit(Add{R0, R0, R1}).
				Emit(SubImm{R1, R1, 1}).
				BTo(AL, "loop").
				Label("done").
				Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopIdle {
		t.Fatalf("stop = %v, want idle", stop.Reason)
	}
	if m.CPU.R[R0] != 15 {
		t.Fatalf("sum = %d, want 15", m.CPU.R[R0])
	}
}

func TestMachineLoadStore(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 0x2000_0100}).
		Emit(MovImm{R1, 0xCAFEBABE}).
		Emit(Str{R1, R0, 0}).
		Emit(Ldr{R2, R0, 0}).
		Emit(MovImm{R3, 0xAB}).
		Emit(Strb{R3, R0, 8}).
		Emit(Ldrb{R4, R0, 8}).
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.CPU.R[R2] != 0xCAFEBABE {
		t.Fatalf("ldr = 0x%08x", m.CPU.R[R2])
	}
	if m.CPU.R[R4] != 0xAB {
		t.Fatalf("ldrb = 0x%02x", m.CPU.R[R4])
	}
}

func TestMachinePushPop(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 11}).
		Emit(MovImm{R1, 22}).
		Emit(Push{Regs: []GPR{R0, R1}}).
		Emit(MovImm{R0, 0}).
		Emit(MovImm{R1, 0}).
		Emit(Pop{Regs: []GPR{R2, R3}}).
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	sp0 := m.CPU.MSP
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.CPU.R[R2] != 11 || m.CPU.R[R3] != 22 {
		t.Fatalf("pop got r2=%d r3=%d", m.CPU.R[R2], m.CPU.R[R3])
	}
	if m.CPU.MSP != sp0 {
		t.Fatalf("sp not balanced: 0x%08x vs 0x%08x", m.CPU.MSP, sp0)
	}
}

func TestMachineBLAndReturn(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.BLTo("fn").
		Emit(WFI{}).
		Label("fn").
		Emit(MovImm{R0, 77}).
		Emit(BXLR{})
	loadAndStart(t, m, a.MustAssemble())
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopIdle || m.CPU.R[R0] != 77 {
		t.Fatalf("stop=%v r0=%d", stop.Reason, m.CPU.R[R0])
	}
}

func TestMachineSVCTakesExceptionAndStacksFrame(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 42}).
		Emit(MovImm{R1, 43}).
		Emit(SVC{Imm: 7}).
		Emit(MovImm{R5, 99}). // executes after exception return
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopSyscall || stop.SVCNum != 7 {
		t.Fatalf("stop=%+v", stop)
	}
	if m.CPU.Mode != ModeHandler {
		t.Fatal("not in handler mode after SVC")
	}
	if m.CPU.ExceptionNumber() != ExcSVCall {
		t.Fatalf("IPSR=%d", m.CPU.ExceptionNumber())
	}
	f, err := m.ReadFrame(m.CPU.MSP)
	if err != nil {
		t.Fatal(err)
	}
	if f.R0 != 42 || f.R1 != 43 {
		t.Fatalf("stacked r0=%d r1=%d", f.R0, f.R1)
	}
	if f.ReturnAddr != 0x100+3*4 {
		t.Fatalf("return addr = 0x%x", f.ReturnAddr)
	}
	// Patch the stacked r0 (syscall return value) and resume via BX LR.
	if err := m.WriteFrameR0(m.CPU.MSP, 123); err != nil {
		t.Fatal(err)
	}
	lr := m.CPU.LR
	if lr != ExcReturnThreadMSP {
		t.Fatalf("LR=0x%08x", lr)
	}
	if err := m.exceptionReturn(lr); err != nil {
		t.Fatal(err)
	}
	stop, err = m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopIdle {
		t.Fatalf("stop=%v", stop.Reason)
	}
	if m.CPU.R[R0] != 123 {
		t.Fatalf("syscall return value r0=%d, want 123", m.CPU.R[R0])
	}
	if m.CPU.R[R5] != 99 {
		t.Fatal("post-SVC instruction did not execute")
	}
}

func TestMachineSysTickPreemptsAndResumes(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Label("loop").
		Emit(AddImm{R0, R0, 1}).
		BTo(AL, "loop")
	loadAndStart(t, m, a.MustAssemble())
	m.Tick.Arm(50)
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopPreempted {
		t.Fatalf("stop=%v", stop.Reason)
	}
	count := m.CPU.R[R0]
	if count == 0 {
		t.Fatal("no progress before preemption")
	}
	// Resume and get preempted again; the loop must make more progress.
	if err := m.exceptionReturn(m.CPU.LR); err != nil {
		t.Fatal(err)
	}
	stop, err = m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopPreempted || m.CPU.R[R0] <= count {
		t.Fatalf("stop=%v count=%d->%d", stop.Reason, count, m.CPU.R[R0])
	}
}

func TestMachineUnprivilegedMPUFault(t *testing.T) {
	m := testMachine(t)
	// User code at 0x400 tries to write kernel RAM at 0x2000_8000.
	a := NewAssembler(0x400)
	a.Emit(MovImm{R0, 0x2000_8000}).
		Emit(MovImm{R1, 0x41}).
		Emit(Str{R1, R0, 0}).
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())

	// MPU: user may execute its code and use its own RAM window only.
	m.MPU.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := m.MPU.WriteRegion(2, 0x0000_0000, mkRASR(4096, 0, mpu.ReadExecuteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if err := m.MPU.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	// Drop to unprivileged thread mode on PSP.
	m.CPU.Control = ControlNPriv | ControlSPSel
	m.CPU.PSP = 0x2000_0300

	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopFault {
		t.Fatalf("stop=%v, want fault", stop.Reason)
	}
	var pe *mpu.ProtectionError
	if !errors.As(stop.Fault, &pe) {
		t.Fatalf("fault=%v, want ProtectionError", stop.Fault)
	}
	if pe.Addr != 0x2000_8000 || pe.Kind != mpu.AccessWrite {
		t.Fatalf("fault detail=%+v", pe)
	}
	if m.CPU.ExceptionNumber() != ExcMemManage {
		t.Fatalf("IPSR=%d, want MemManage", m.CPU.ExceptionNumber())
	}
	// The write must not have landed.
	v, err := m.Mem.ReadWord(0x2000_8000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatal("faulting store mutated memory")
	}
}

func TestMachinePrivilegedModeBypassesMPU(t *testing.T) {
	// The flip side of the missed-mode-switch bug (tock#4246): if the
	// kernel forgets to drop privileges, the same store succeeds.
	m := testMachine(t)
	a := NewAssembler(0x400)
	a.Emit(MovImm{R0, 0x2000_8000}).
		Emit(MovImm{R1, 0x41}).
		Emit(Str{R1, R0, 0}).
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	m.MPU.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := m.MPU.WriteRegion(2, 0x0000_0000, mkRASR(4096, 0, mpu.ReadExecuteOnly, true)); err != nil {
		t.Fatal(err)
	}
	// Privileged thread mode (CONTROL.nPRIV clear).
	m.CPU.Control = ControlSPSel
	m.CPU.PSP = 0x2000_0300
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopIdle {
		t.Fatalf("stop=%v", stop.Reason)
	}
	v, _ := m.Mem.ReadWord(0x2000_8000)
	if v != 0x41 {
		t.Fatal("privileged store did not land — PRIVDEFENA semantics wrong")
	}
}

func TestMachineExecuteFetchChecked(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x400)
	a.Emit(NOP{}).Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	m.MPU.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	// RAM region is rw- (XN): jumping there must fault on fetch.
	if err := m.MPU.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	m.CPU.Control = ControlNPriv | ControlSPSel
	m.CPU.PSP = 0x2000_0300
	m.CPU.PC = 0x2000_0000 // points into XN RAM
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopFault {
		t.Fatalf("stop=%v, want fault on XN fetch", stop.Reason)
	}
}

func TestMachineUDFEscalatesToHardFault(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(UDF{})
	loadAndStart(t, m, a.MustAssemble())
	stop, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopFault || m.CPU.ExceptionNumber() != ExcHardFault {
		t.Fatalf("stop=%v IPSR=%d", stop.Reason, m.CPU.ExceptionNumber())
	}
}

func TestMachineBudgetStops(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Label("loop").BTo(AL, "loop")
	loadAndStart(t, m, a.MustAssemble())
	stop, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopBudget {
		t.Fatalf("stop=%v", stop.Reason)
	}
}

func TestMachineMSRMRSAndPrivilegeDrop(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	// Privileged code sets CONTROL = nPRIV|SPSel then tries to raise
	// privileges again; the second MSR must be ignored.
	a.Emit(MovImm{R0, ControlNPriv | ControlSPSel}).
		Emit(MSR{SpecCONTROL, R0}).
		Emit(ISB{}).
		Emit(MovImm{R0, 0}).
		Emit(MSR{SpecCONTROL, R0}). // unprivileged: ignored
		Emit(MRS{R1, SpecCONTROL}).
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	m.CPU.PSP = 0x2000_0F00
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.CPU.R[R1] != ControlNPriv|ControlSPSel {
		t.Fatalf("CONTROL=0x%x after unprivileged MSR, want unchanged", m.CPU.R[R1])
	}
	if m.CPU.Privileged() {
		t.Fatal("still privileged after CONTROL.nPRIV set")
	}
}

func TestMachineOverlappingProgramsRejected(t *testing.T) {
	m := testMachine(t)
	p1 := NewAssembler(0x100)
	p1.Emit(NOP{}).Emit(NOP{})
	if err := m.LoadProgram(p1.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	p2 := NewAssembler(0x104)
	p2.Emit(NOP{})
	if err := m.LoadProgram(p2.MustAssemble()); err == nil {
		t.Fatal("overlapping program accepted")
	}
}

func TestMachineCycleAccounting(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 1}). // 2 cycles
				Emit(Add{R0, R0, R0}). // 1
				Emit(WFI{})            // 1
	loadAndStart(t, m, a.MustAssemble())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Meter.Cycles(); got != 4 {
		t.Fatalf("cycles=%d, want 4", got)
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := NewAssembler(0)
	a.BTo(AL, "nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestSysTickAdvanceAndReload(t *testing.T) {
	var s SysTick
	s.Arm(10)
	s.Advance(9)
	if s.Pending() {
		t.Fatal("pending too early")
	}
	s.Advance(1)
	if !s.Pending() {
		t.Fatal("not pending after reload boundary")
	}
	if !s.TakePending() {
		t.Fatal("TakePending lost the event")
	}
	if s.TakePending() {
		t.Fatal("TakePending did not clear")
	}
	// Multiple expirations in one Advance.
	s.Arm(5)
	s.Advance(17)
	if s.Fired < 3 {
		t.Fatalf("Fired=%d, want >=3", s.Fired)
	}
	s.Disarm()
	s.Advance(100)
	if s.Pending() {
		t.Fatal("disarmed timer fired")
	}
}

func TestMachineRegisterOffsetAndBitOps(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	// Walk a 4-word array with a register index, summing via LdrReg.
	a.Emit(MovImm{R0, 0x2000_0200}). // base
						Emit(MovImm{R1, 0}). // offset
						Emit(MovImm{R2, 0})  // sum
	// Store 3,5,7,9 via StrReg.
	for i, v := range []uint32{3, 5, 7, 9} {
		a.Emit(MovImm{R3, v}).
			Emit(MovImm{R1, uint32(4 * i)}).
			Emit(StrReg{R3, R0, R1})
	}
	a.Emit(MovImm{R1, 0}).
		Emit(MovImm{R4, 4}). // counter
		Label("loop").
		Emit(LdrReg{R3, R0, R1}).
		Emit(Add{R2, R2, R3}).
		Emit(AddImm{R1, R1, 4}).
		Emit(SubsImm{R4, R4, 1}).
		BTo(NE, "loop").
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.CPU.R[R2] != 24 {
		t.Fatalf("sum=%d, want 24", m.CPU.R[R2])
	}
}

func TestMachineBicMvnRsb(t *testing.T) {
	m := testMachine(t)
	a := NewAssembler(0x100)
	a.Emit(MovImm{R0, 0xFF}).
		Emit(MovImm{R1, 0x0F}).
		Emit(Bic{R2, R0, R1}).     // 0xF0
		Emit(Mvn{R3, R0}).         // 0xFFFFFF00
		Emit(RsbImm{R4, R1, 100}). // 85
		Emit(WFI{})
	loadAndStart(t, m, a.MustAssemble())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.CPU.R[R2] != 0xF0 || m.CPU.R[R3] != 0xFFFFFF00 || m.CPU.R[R4] != 85 {
		t.Fatalf("r2=0x%x r3=0x%x r4=%d", m.CPU.R[R2], m.CPU.R[R3], m.CPU.R[R4])
	}
}
