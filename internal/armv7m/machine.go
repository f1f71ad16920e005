package armv7m

import (
	"errors"
	"fmt"

	"ticktock/internal/blockcache"
	"ticktock/internal/metrics"
	"ticktock/internal/mpu"
)

// Exception numbers (B1.5.2).
const (
	ExcHardFault = 3
	ExcMemManage = 4
	ExcSVCall    = 11
	ExcPendSV    = 14
	ExcSysTick   = 15
)

// internal trap errors used to signal exceptional instruction outcomes from
// Exec back to the step loop. They are values that fit an interface word
// (svcTrap is its immediate), so raising one allocates nothing.
type svcTrap uint8

func (t svcTrap) Error() string { return fmt.Sprintf("svc #%d", uint8(t)) }

type udfTrap struct{}

func (udfTrap) Error() string { return "undefined instruction" }

type wfiTrap struct{}

func (wfiTrap) Error() string { return "wfi" }

// Program is a sequence of instructions mapped at a flash base address;
// instruction k occupies [Base+4k, Base+4k+4).
type Program = blockcache.Program[Instr]

// StopReason explains why Machine.Run returned control to native (kernel)
// code. It corresponds to the ContextSwitchReason the Tock kernel's
// switch_to_user reports.
type StopReason uint8

// Stop reasons.
const (
	// StopSyscall: the program executed SVC; the SVCall exception was
	// taken and the syscall arguments sit in the stacked frame.
	StopSyscall StopReason = iota
	// StopPreempted: SysTick expired and the SysTick exception was taken.
	StopPreempted
	// StopFault: the program faulted (MPU violation, bus error or UDF);
	// the MemManage/HardFault exception was taken.
	StopFault
	// StopBudget: the caller-provided cycle budget ran out before any
	// exception; the CPU remains in thread mode.
	StopBudget
	// StopIdle: the program executed WFI.
	StopIdle
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopSyscall:
		return "syscall"
	case StopPreempted:
		return "preempted"
	case StopFault:
		return "fault"
	case StopBudget:
		return "budget"
	case StopIdle:
		return "idle"
	default:
		return fmt.Sprintf("StopReason(%d)", uint8(r))
	}
}

// Stop describes why user execution stopped and with what detail. Run and
// Step return it by value: a trap allocates nothing, and a Stop the
// caller keeps never changes under a later trap.
type Stop struct {
	Reason StopReason
	// SVCNum is the SVC immediate when Reason is StopSyscall.
	SVCNum uint8
	// Fault carries the fault cause when Reason is StopFault.
	Fault error
}

// Machine ties together the CPU, physical memory, MPU and SysTick, and
// executes programs. Exactly one Machine exists per simulated chip.
type Machine struct {
	CPU   CPU
	Mem   *Memory
	MPU   *MPUHardware
	Tick  *SysTick
	Meter *Meter

	// Core holds the loaded programs and, while SetFastCore is on, the
	// block-cache fast core: Run dispatches through predecoded basic
	// blocks and checkAccess uses interval hints. Step stays the
	// byte-scan oracle either way.
	blockcache.Core[Instr]

	pcWritten bool

	// Fault latches the MemManage fault status on each MPU violation,
	// like the SCB's MMFSR/MMFAR.
	Fault FaultStatus

	// Trace, when non-nil, receives every executed instruction.
	Trace func(pc uint32, in Instr)

	// OnException, when non-nil, observes exception entry (entry=true,
	// after the frame is stacked) and exception return (entry=false,
	// after the frame is unstacked). excNum is the exception number
	// being entered or returned from. The kernel's event tracer hangs
	// off this hook; it must not mutate machine state.
	OnException func(excNum uint32, entry bool)

	// LoadFault, when non-nil, is consulted on every MPU-checked data
	// load; a non-nil return is delivered to the program as a bus fault
	// on that access. The fault-injection engine uses it to model
	// transient memory-bus read errors; it must not mutate machine
	// state, and a nil hook costs one pointer check and zero simulated
	// cycles.
	LoadFault func(addr uint32) error

	// Machine-level metrics (AttachMetrics). All are nil-safe: an
	// unattached machine pays one nil check per site and charges no
	// simulated cycles either way.
	mInstr *metrics.Counter
	mTick  *metrics.Counter
	mExc   [16]*metrics.Counter
}

// NewMachine assembles a machine around the given memory map.
func NewMachine(mem *Memory) *Machine {
	return &Machine{
		Mem:   mem,
		MPU:   NewMPUHardware(),
		Tick:  &SysTick{},
		Meter: &Meter{},
	}
}

// fetch returns the instruction at addr after an MPU execute check. The
// check covers the instruction's first byte, like a real fetch of the
// first halfword.
func (m *Machine) fetch(addr uint32) (Instr, error) {
	if priv := m.CPU.Privileged(); !m.MPU.Allows(addr, mpu.AccessExecute, priv) {
		return nil, &mpu.ProtectionError{Addr: addr, Kind: mpu.AccessExecute, Privileged: priv}
	}
	if p := m.ProgramAt(addr); p != nil {
		if in := p.At(addr); in != nil {
			return in, nil
		}
	}
	return nil, &BusError{Addr: addr}
}

// writePC records a PC write so the step loop suppresses the automatic
// advance.
func (m *Machine) writePC(v uint32) {
	m.CPU.PC = v
	m.pcWritten = true
}

// checkAccess runs the MPU check for a data access at the current
// privilege level and builds the MemManage fault value on a denial. With
// the fast core enabled it first consults the last-hit accessmap
// interval hint; only the success case is ever short-circuited, so
// denials reach the hardware Allows and produce byte-identical
// ProtectionError values. Like the oracle path, the check covers the
// access's first byte.
func (m *Machine) checkAccess(addr uint32, kind mpu.AccessKind) error {
	priv := m.CPU.Privileged()
	if f := m.Fast(); f != nil {
		if f.Hints.Allows(addr, 1, kind, priv, m.MPU.Current()) {
			f.Table.Stats.HintHits++
			return nil
		}
		f.Table.Stats.HintMisses++
		if f.Hints.Update(addr, 1, kind, priv, m.MPU.AccessMap()) {
			return nil
		}
	}
	if !m.MPU.Allows(addr, kind, priv) {
		return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: priv}
	}
	return nil
}

// loadWord is an MPU-checked word load.
func (m *Machine) loadWord(addr uint32) (uint32, error) {
	if err := m.checkAccess(addr, mpu.AccessRead); err != nil {
		return 0, err
	}
	if m.LoadFault != nil {
		if err := m.LoadFault(addr); err != nil {
			return 0, err
		}
	}
	return m.Mem.ReadWord(addr)
}

// loadByte is an MPU-checked byte load.
func (m *Machine) loadByte(addr uint32) (byte, error) {
	if err := m.checkAccess(addr, mpu.AccessRead); err != nil {
		return 0, err
	}
	if m.LoadFault != nil {
		if err := m.LoadFault(addr); err != nil {
			return 0, err
		}
	}
	return m.Mem.LoadByte(addr)
}

// storeWord is an MPU-checked word store.
func (m *Machine) storeWord(addr uint32, v uint32) error {
	if err := m.checkAccess(addr, mpu.AccessWrite); err != nil {
		return err
	}
	return m.Mem.WriteWord(addr, v)
}

// StackedFrame is the 8-word hardware exception frame (B1.5.6).
type StackedFrame struct {
	R0, R1, R2, R3, R12, LR, ReturnAddr, PSR uint32
}

// frameWords is the stacked frame size in bytes.
const frameBytes = 32

// PushStackedFrame performs hardware exception-entry stacking onto the
// stack pointer the CPU was using and returns the new stack pointer
// value. Per ARMv7-M (B1.5.6/B3.5), the stacking writes are checked
// against the MPU *at the privilege of the interrupted mode*: an
// unprivileged process whose stack pointer strays into protected memory
// takes a derived MemManage (MSTKERR) and the frame writes are abandoned
// — the hardware never scribbles kernel RAM on the process's behalf. The
// SP is still adjusted, and exception entry proceeds with an
// unpredictable frame, which the kernel only ever consumes for processes
// it is about to fault anyway. The words before the first denied one are
// written, in order, as the per-word writes would leave them.
func (m *Machine) pushStackedFrame() (uint32, error) {
	sp := m.CPU.SP() - frameBytes
	f := [8]uint32{
		m.CPU.R[R0], m.CPU.R[R1], m.CPU.R[R2], m.CPU.R[R3],
		m.CPU.R[R12], m.CPU.LR, m.CPU.PC, m.CPU.PSR,
	}
	n := m.MPU.writableWords(sp, len(f), m.CPU.Privileged())
	for i, w := range f[:n] {
		if err := m.Mem.WriteWord(sp+uint32(4*i), w); err != nil {
			// Unmapped stack: likewise abandoned (BusFault.STKERR).
			return sp, nil
		}
	}
	if n < len(f) {
		// MSTKERR at the first denied word: the rest are abandoned.
		m.Fault = FaultStatus{Valid: true, MMFAR: sp + uint32(4*n), DACCVIOL: true}
	}
	return sp, nil
}

// ReadFrame reads the stacked exception frame at sp.
func (m *Machine) ReadFrame(sp uint32) (StackedFrame, error) {
	var f StackedFrame
	dst := []*uint32{&f.R0, &f.R1, &f.R2, &f.R3, &f.R12, &f.LR, &f.ReturnAddr, &f.PSR}
	for i, p := range dst {
		w, err := m.Mem.ReadWord(sp + uint32(4*i))
		if err != nil {
			return f, err
		}
		*p = w
	}
	return f, nil
}

// WriteFrameR0 patches the stacked r0, which becomes the syscall return
// value after exception return.
func (m *Machine) WriteFrameR0(sp uint32, v uint32) error {
	return m.Mem.WriteWord(sp, v)
}

// TakeException performs exception entry for excNum: stack the frame,
// switch to Handler mode on MSP, record the exception number in IPSR and
// load the EXC_RETURN value into LR. The handler body itself runs natively
// in the kernel; the PC is left at the faulting/return address for
// diagnosis.
func (m *Machine) TakeException(excNum uint32) error {
	sp, err := m.pushStackedFrame()
	if err != nil {
		return err
	}
	usedPSP := m.CPU.usesPSP()
	m.CPU.SetSP(sp)
	m.CPU.Mode = ModeHandler
	m.CPU.PSR = (m.CPU.PSR &^ IPSRMask) | (excNum & IPSRMask)
	if usedPSP {
		m.CPU.LR = ExcReturnThreadPSP
	} else {
		m.CPU.LR = ExcReturnThreadMSP
	}
	m.Meter.Add(CostException)
	if excNum < uint32(len(m.mExc)) {
		m.mExc[excNum].Inc()
	}
	if m.OnException != nil {
		m.OnException(excNum, true)
	}
	return nil
}

// exceptionReturn implements BX to an EXC_RETURN value: unstack the frame
// from the selected stack and resume the interrupted context.
func (m *Machine) exceptionReturn(excReturn uint32) error {
	if m.CPU.Mode != ModeHandler {
		return errors.New("armv7m: exception return outside handler mode")
	}
	var sp uint32
	switch excReturn {
	case ExcReturnThreadPSP:
		sp = m.CPU.PSP
	case ExcReturnThreadMSP, ExcReturnHandler:
		sp = m.CPU.MSP
	default:
		return fmt.Errorf("armv7m: bad EXC_RETURN 0x%08x", excReturn)
	}
	f, err := m.ReadFrame(sp)
	if err != nil {
		return fmt.Errorf("armv7m: exception unstacking failed: %w", err)
	}
	returningFrom := m.CPU.PSR & IPSRMask
	m.CPU.R[R0], m.CPU.R[R1], m.CPU.R[R2], m.CPU.R[R3] = f.R0, f.R1, f.R2, f.R3
	m.CPU.R[R12], m.CPU.LR, m.CPU.PSR = f.R12, f.LR, f.PSR&^IPSRMask|0 // IPSR cleared on thread return
	switch excReturn {
	case ExcReturnThreadPSP:
		m.CPU.PSP = sp + frameBytes
		m.CPU.Mode = ModeThread
		m.CPU.Control |= ControlSPSel
	case ExcReturnThreadMSP:
		m.CPU.MSP = sp + frameBytes
		m.CPU.Mode = ModeThread
		m.CPU.Control &^= ControlSPSel
	case ExcReturnHandler:
		m.CPU.MSP = sp + frameBytes
		m.CPU.Mode = ModeHandler
	}
	m.writePC(f.ReturnAddr)
	m.Meter.Add(CostException)
	if m.OnException != nil {
		m.OnException(returningFrom, false)
	}
	return nil
}

// Step executes one instruction, charging cycles and advancing the PC.
// stopped reports whether an exception was taken (or WFI executed), and
// stop then says why.
func (m *Machine) Step() (stop Stop, stopped bool, err error) {
	// Pending SysTick preempts before the next instruction issues.
	if m.Tick.TakePending() {
		stop, err = m.preempt()
		return stop, true, err
	}
	in, err := m.fetch(m.CPU.PC)
	if err != nil {
		stop, err = m.faultStop(err)
		return stop, true, err
	}
	if m.Trace != nil {
		m.Trace(m.CPU.PC, in)
	}
	m.pcWritten = false
	m.mInstr.Inc()
	execErr := in.Exec(m)
	cost := in.Cost()
	m.Meter.Add(cost)
	m.Tick.Advance(cost)
	if execErr != nil {
		stop, err = m.execStop(execErr)
		return stop, true, err
	}
	if !m.pcWritten {
		m.CPU.PC += 4
	}
	return Stop{}, false, nil
}

// preempt takes the pending SysTick exception. Shared by the oracle Step
// and the fast-core dispatch loop, which poll the tick at the same
// points.
func (m *Machine) preempt() (Stop, error) {
	m.mTick.Inc()
	if err := m.TakeException(ExcSysTick); err != nil {
		return Stop{}, err
	}
	return Stop{Reason: StopPreempted}, nil
}

// execStop maps a trap error returned by Exec to its exception entry and
// Stop. Shared by the oracle Step and the fast-core dispatch loop so
// both produce identical architectural effects. The caller must already
// have charged the instruction's cost to the meter and timer.
func (m *Machine) execStop(execErr error) (Stop, error) {
	switch t := execErr.(type) {
	case svcTrap:
		// SVC: PC must advance past the SVC instruction before
		// stacking so the return address is the next instruction.
		m.CPU.PC += 4
		if err := m.TakeException(ExcSVCall); err != nil {
			return Stop{}, err
		}
		return Stop{Reason: StopSyscall, SVCNum: uint8(t)}, nil
	case wfiTrap:
		m.CPU.PC += 4
		return Stop{Reason: StopIdle}, nil
	}
	return m.faultStop(execErr)
}

// faultStop takes the appropriate fault exception for err and reports the
// stop. MPU violations raise MemManage; everything else raises HardFault.
func (m *Machine) faultStop(cause error) (Stop, error) {
	exc := uint32(ExcHardFault)
	var pe *mpu.ProtectionError
	if errors.As(cause, &pe) {
		exc = ExcMemManage
		m.Fault = FaultStatus{
			Valid:    true,
			MMFAR:    pe.Addr,
			DACCVIOL: pe.Kind != mpu.AccessExecute,
			IACCVIOL: pe.Kind == mpu.AccessExecute,
		}
	}
	if err := m.TakeException(exc); err != nil {
		return Stop{}, fmt.Errorf("armv7m: double fault: %v while handling %v", err, cause)
	}
	return Stop{Reason: StopFault, Fault: cause}, nil
}

// Run steps until an exception stops execution or the cycle budget is
// exhausted. A budget of 0 means unlimited (bounded only by exceptions),
// which callers should use with care.
func (m *Machine) Run(budget uint64) (Stop, error) {
	if m.FastCore() {
		return m.runFast(budget)
	}
	start := m.Meter.Cycles()
	for {
		stop, stopped, err := m.Step()
		if stopped || err != nil {
			return stop, err
		}
		if budget != 0 && m.Meter.Cycles()-start >= budget {
			return Stop{Reason: StopBudget}, nil
		}
	}
}

// SwitchToUser is the hardware-level tail of the kernel's context switch:
// an exception return to Thread mode on the process stack pointer,
// unstacking the frame at PSP into the live registers. The caller (kernel)
// must first restore the callee-saved registers, set PSP, and set the
// CONTROL privilege bit — the steps the fluxarm contracts verify, and the
// steps tock#4246 showed are easy to get wrong.
func (m *Machine) SwitchToUser() error {
	m.CPU.Mode = ModeHandler // hardware is mid-exception during the switch
	return m.exceptionReturn(ExcReturnThreadPSP)
}
