// Package rv32 implements a cycle-counting model of a 32-bit RISC-V
// microcontroller: an RV32IM-subset CPU with machine/user privilege
// modes, trap CSRs (mepc/mcause/mtval), a CLINT-style machine timer, and
// physical memory protection through the internal/riscv PMP model.
//
// It is the RISC-V counterpart of internal/armv7m and plays the role QEMU
// plays in the paper's §6.1 evaluation: a software target that runs the
// release-test applications on the three supported chips so the kernel's
// RISC-V port can be differentially tested without hardware.
package rv32

import (
	"fmt"

	"ticktock/internal/blockcache"
	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
)

// Reg is an integer register number x0..x31. x0 is hardwired to zero.
type Reg uint8

// ABI register names.
const (
	Zero Reg = 0
	RA   Reg = 1
	SP   Reg = 2
	GP   Reg = 3
	TP   Reg = 4
	T0   Reg = 5
	T1   Reg = 6
	T2   Reg = 7
	S0   Reg = 8
	S1   Reg = 9
	A0   Reg = 10
	A1   Reg = 11
	A2   Reg = 12
	A3   Reg = 13
	A4   Reg = 14
	A5   Reg = 15
	A6   Reg = 16
	A7   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	S8   Reg = 24
	S9   Reg = 25
	S10  Reg = 26
	S11  Reg = 27
	T3   Reg = 28
	T4   Reg = 29
	T5   Reg = 30
	T6   Reg = 31
)

// Priv is the privilege mode.
type Priv uint8

// Privilege modes (no supervisor mode on these chips).
const (
	PrivUser    Priv = 0
	PrivMachine Priv = 3
)

// String implements fmt.Stringer.
func (p Priv) String() string {
	if p == PrivMachine {
		return "machine"
	}
	return "user"
}

// mcause values (privileged spec table 3.6).
const (
	CauseInstrAccessFault = 1
	CauseIllegalInstr     = 2
	CauseBreakpoint       = 3
	CauseLoadAccessFault  = 5
	CauseStoreAccessFault = 7
	CauseEcallU           = 8
	CauseEcallM           = 11
	// CauseMachineTimer is the interrupt cause with the interrupt bit.
	CauseMachineTimer = 0x8000_0007
)

// CSR state the model tracks.
type CSRs struct {
	MEPC   uint32
	MCause uint32
	MTVal  uint32
	// MPP is the previous privilege (mstatus.MPP) used by MRET.
	MPP Priv
}

// CLINT is the core-local interrupt timer: a countdown that latches a
// machine-timer interrupt, mirroring mtime/mtimecmp behaviour at the
// granularity this model needs.
type CLINT struct {
	Enabled  bool
	current  uint64
	pending  bool
	dropNext bool
	// pendingJitter accumulates jitter deltas recorded while the timer
	// was disarmed, applied once at the next Arm (the kernel disarms
	// across every trap).
	pendingJitter int64
	Fired         uint64
}

// Arm starts a countdown of n cycles.
func (c *CLINT) Arm(n uint64) {
	c.Enabled, c.current, c.pending = true, n, false
	if d := c.pendingJitter; d != 0 {
		c.pendingJitter = 0
		c.Jitter(d)
	}
}

// Disarm stops the timer.
func (c *CLINT) Disarm() { c.Enabled, c.pending, c.dropNext = false, false, false }

// Advance counts down by n cycles.
func (c *CLINT) Advance(n uint64) {
	if !c.Enabled {
		return
	}
	if c.current > n {
		c.current -= n
		return
	}
	c.current = 0
	if c.dropNext {
		// Fault injection: the expiry is swallowed once; the timer keeps
		// counting from zero so the next Advance latches normally.
		c.dropNext = false
		return
	}
	if !c.pending {
		c.pending = true
		c.Fired++
	}
}

// Jitter perturbs the live countdown by delta cycles (fault injection:
// reference-clock jitter). The count is clamped to at least 1 so the
// timer never expires retroactively. On a disarmed timer the delta
// accumulates and is applied at the next Arm: successive glitches
// between quanta must sum, not overwrite each other.
func (c *CLINT) Jitter(delta int64) {
	if !c.Enabled {
		c.pendingJitter += delta
		return
	}
	v := int64(c.current) + delta
	if v < 1 {
		v = 1
	}
	c.current = uint64(v)
}

// DropNext makes the timer swallow its next expiry without latching the
// interrupt (fault injection: a dropped tick).
func (c *CLINT) DropNext() { c.dropNext = true }

// Pending reports whether a timer interrupt is latched (without
// consuming it), mirroring the ARM SysTick accessor.
func (c *CLINT) Pending() bool { return c.pending }

// Current returns the live countdown value.
func (c *CLINT) Current() uint64 { return c.current }

// TakePending consumes a pending timer interrupt.
func (c *CLINT) TakePending() bool {
	p := c.pending
	c.pending = false
	return p
}

// Program is a sequence of decoded instructions at a flash base; each
// occupies 4 bytes.
type Program = blockcache.Program[Instr]

// StopReason explains why Run returned to native (kernel) code.
type StopReason uint8

// Stop reasons.
const (
	StopEcall StopReason = iota
	StopTimer
	StopFault
	StopBudget
	StopWFI
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopEcall:
		return "ecall"
	case StopTimer:
		return "timer"
	case StopFault:
		return "fault"
	case StopBudget:
		return "budget"
	case StopWFI:
		return "wfi"
	default:
		return fmt.Sprintf("StopReason(%d)", uint8(r))
	}
}

// Stop describes a trap into the kernel. Run and Step return it by
// value: a trap allocates nothing, and a Stop the caller keeps never
// changes under a later trap.
type Stop struct {
	Reason StopReason
	Cause  uint32
	Fault  error
}

// Machine is one simulated RISC-V chip.
type Machine struct {
	X     [32]uint32
	PC    uint32
	Priv  Priv
	CSR   CSRs
	Mem   *physmem.Memory
	PMP   *riscv.PMP
	Timer CLINT
	Meter *cycles.Meter

	// LoadFault, when non-nil, is consulted on every PMP-checked data
	// load; a non-nil return is delivered to the program as a load access
	// fault on that address. The fault-injection engine uses it to model
	// transient memory-bus read errors; it must not mutate machine state,
	// and a nil hook costs one pointer check and zero simulated cycles.
	LoadFault func(addr uint32) error

	// Core holds the loaded programs and, while SetFastCore is on, the
	// block-cache fast core: Run dispatches through predecoded basic
	// blocks and check uses interval hints. Step stays the byte-scan
	// oracle either way.
	blockcache.Core[Instr]

	pcWritten bool
}

// NewMachine builds a machine for the given chip configuration.
func NewMachine(mem *physmem.Memory, chip riscv.ChipConfig) *Machine {
	return &Machine{
		Mem:   mem,
		PMP:   riscv.NewPMP(chip),
		Meter: &cycles.Meter{},
		Priv:  PrivMachine,
	}
}

// reg reads a register. X[0] is kept zero by setReg, so no branch is
// needed to make x0 read as zero.
func (m *Machine) reg(r Reg) uint32 {
	return m.X[r]
}

// setReg writes a register. Writes to x0 must be discarded; instead of
// branching, the write lands and x0 is unconditionally re-zeroed, which
// keeps the hot path branch-free while preserving the X[0]==0 invariant
// that reg relies on.
func (m *Machine) setReg(r Reg, v uint32) {
	m.X[r] = v
	m.X[0] = 0
}

// writePC records an explicit PC write.
func (m *Machine) writePC(v uint32) {
	m.PC = v
	m.pcWritten = true
}

// machineMode reports whether PMP checks run with M-mode rights.
func (m *Machine) machineMode() bool { return m.Priv == PrivMachine }

// check runs the PMP check at the current privilege and builds the
// access fault value on a denial. With the fast core enabled it first
// consults the last-hit accessmap interval hint; only the success case
// is ever short-circuited, so denials reach the hardware Allows and
// produce byte-identical fault values. Like the oracle path, the check
// covers the access's first byte.
func (m *Machine) check(addr uint32, kind mpu.AccessKind) error {
	priv := m.machineMode()
	if f := m.Fast(); f != nil {
		if f.Hints.Allows(addr, 1, kind, priv, m.PMP.Current()) {
			f.Table.Stats.HintHits++
			return nil
		}
		f.Table.Stats.HintMisses++
		if f.Hints.Update(addr, 1, kind, priv, m.PMP.AccessMap()) {
			return nil
		}
	}
	if !m.PMP.Allows(addr, kind, priv) {
		return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: priv}
	}
	return nil
}

// fetch returns the instruction at addr after a PMP execute check. The
// check covers the instruction's first byte and goes to the PMP
// directly: the fast core's hints cache load/store checks only.
func (m *Machine) fetch(addr uint32) (Instr, error) {
	if priv := m.machineMode(); !m.PMP.Allows(addr, mpu.AccessExecute, priv) {
		return nil, &mpu.ProtectionError{Addr: addr, Kind: mpu.AccessExecute, Privileged: priv}
	}
	if p := m.ProgramAt(addr); p != nil {
		if in := p.At(addr); in != nil {
			return in, nil
		}
	}
	return nil, &physmem.BusError{Addr: addr}
}

// trap records trap state and drops to machine mode.
func (m *Machine) trap(cause, tval uint32) {
	m.CSR.MEPC = m.PC
	m.CSR.MCause = cause
	m.CSR.MTVal = tval
	m.CSR.MPP = m.Priv
	m.Priv = PrivMachine
	m.Meter.Add(cycles.Exception)
}

// ResumeUser performs what MRET does after the kernel prepared MEPC: drop
// to user mode and continue at the given PC.
func (m *Machine) ResumeUser(pc uint32) {
	m.PC = pc
	m.Priv = PrivUser
	m.Meter.Add(cycles.Exception)
}

// Step executes one instruction. stopped reports whether a trap was taken
// (or WFI executed), and stop then says why.
//
// The pending machine-timer interrupt is polled only in user mode: in
// machine mode mstatus.MIE is clear (the kernel runs with interrupts
// masked and re-enables them via MRET/ResumeUser), so a tick latched
// while machine-mode code steps stays pending and is delivered before
// the first user instruction after ResumeUser. This deliberately
// differs from armv7m, whose SysTick preempts handler mode too (the
// model omits NVIC priority masking); both kernels only ever step user
// code, so the asymmetry is unobservable in the kernel flows, and the
// cross-port contract — a tick pending at user entry preempts before
// any user instruction retires — is pinned by the timer_user_entry
// obligation in internal/specs and TestTimerPendingAtUserEntryParity
// in internal/difftest.
func (m *Machine) Step() (stop Stop, stopped bool, err error) {
	if m.Priv == PrivUser && m.Timer.TakePending() {
		m.trap(CauseMachineTimer, 0)
		return Stop{Reason: StopTimer, Cause: CauseMachineTimer}, true, nil
	}
	in, err := m.fetch(m.PC)
	if err != nil {
		cause := uint32(CauseInstrAccessFault)
		m.trap(cause, m.PC)
		return Stop{Reason: StopFault, Cause: cause, Fault: err}, true, nil
	}
	m.pcWritten = false
	execErr := in.Exec(m)
	cost := in.Cost()
	m.Meter.Add(cost)
	m.Timer.Advance(cost)
	if execErr != nil {
		stop, err = m.execStop(execErr)
		return stop, true, err
	}
	if !m.pcWritten {
		m.PC += 4
	}
	return Stop{}, false, nil
}

// execStop maps a trap error returned by Exec to its trap entry and
// Stop. Shared by the oracle Step and the fast-core dispatch loop so
// both produce identical architectural effects. The caller must already
// have charged the instruction's cost to the meter and timer.
func (m *Machine) execStop(execErr error) (Stop, error) {
	switch e := execErr.(type) {
	case ecallTrap:
		cause := uint32(CauseEcallU)
		if m.Priv == PrivMachine {
			cause = CauseEcallM
		}
		m.trap(cause, 0)
		return Stop{Reason: StopEcall, Cause: cause}, nil
	case wfiTrap:
		m.PC += 4
		return Stop{Reason: StopWFI}, nil
	case *illegalTrap:
		m.trap(CauseIllegalInstr, 0)
		return Stop{Reason: StopFault, Cause: CauseIllegalInstr, Fault: e}, nil
	case *accessFault:
		m.trap(e.cause, e.addr)
		return Stop{Reason: StopFault, Cause: e.cause, Fault: e.inner}, nil
	default:
		return Stop{}, execErr
	}
}

// Run steps until a trap or the cycle budget is exhausted (0 = unlimited).
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
