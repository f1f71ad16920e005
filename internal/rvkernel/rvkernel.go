// Package rvkernel is the RISC-V port of the TickTock kernel: the same
// granular MPU abstraction (internal/core over the PMP driver), the same
// TBF loader and syscall classes, running applications on the RV32
// machine model for all three supported chips. It plays the role of the
// paper's QEMU runs in §6.1: demonstrating that every release application
// runs to completion on the RISC-V targets.
//
// The port underlines the paper's reuse claim: the process allocator,
// break accounting and isolation invariants are the *same generic code*
// as the ARM kernel's, and so are the scheduler, fault supervision,
// instrumentation and the syscall ABI with its shared drivers
// (internal/kcore). This package supplies only the trap glue, the
// register-file side of the ecall ABI (arguments in a0..a3, class in
// a7, return value in a0), the wake-only alarm set, and the machine
// model.
package rvkernel

import (
	"encoding/binary"
	"fmt"

	"ticktock/internal/core"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/tbf"
)

// Memory map of the simulated RISC-V board (HiFive1-like).
const (
	FlashBase = 0x2000_0000
	FlashSize = 0x0010_0000

	RAMBase = 0x8000_0000
	RAMSize = 0x0004_0000

	AppFlashBase = 0x2004_0000

	KernelLowRAMSize = 0x1000
	KernelRAMSize    = 0x1_0000

	ProcessPoolBase = RAMBase + KernelLowRAMSize
	ProcessPoolSize = RAMSize - KernelRAMSize - KernelLowRAMSize

	// KernelDataBase is a kernel-owned victim address for isolation
	// tests.
	KernelDataBase = RAMBase + RAMSize - KernelRAMSize
)

// Process states and fault policies (kcore.State, kcore.FaultPolicy).
const (
	StateReady       = kcore.StateReady
	StateYielded     = kcore.StateYielded
	StateExited      = kcore.StateExited
	StateFaulted     = kcore.StateFaulted
	StateQuarantined = kcore.StateQuarantined

	PolicyStop       = kcore.PolicyStop
	PolicyRestart    = kcore.PolicyRestart
	PolicyQuarantine = kcore.PolicyQuarantine
)

// App describes a RISC-V application.
type App struct {
	Name       string
	MinRAM     uint32
	InitRAM    uint32
	Stack      uint32
	KernelHint uint32
	// Build assembles the program at codeBase; like kernel.App's, it
	// may share one Program between calls at a base.
	Build func(codeBase uint32) *rv32.Program
	// Quanta is a release-subset app's run budget in scheduler quanta:
	// every runner of the subset runs it for at most this many.
	Quanta int
}

// coreKernel, coreProcess and supervision are the port-neutral kernel
// under unexported names, so this port's API gains only their promoted
// fields and methods.
type (
	coreKernel  = kcore.Kernel[*Process, uint32]
	coreProcess = kcore.Process
	supervision = kcore.Supervision[*Process, uint32]
)

// Process is the kernel's per-process record: the port-neutral record
// plus the RV32 saved context and the granular allocator over the PMP.
type Process struct {
	coreProcess
	Alloc *core.AppMemoryAllocator[core.PMPRegion]

	// Saved user context: all integer registers plus the pc.
	Regs [32]uint32
	PC   uint32

	// initialBreak and stackSize are remembered from load time so the
	// restart policy can reset the process.
	initialBreak uint32
	stackSize    uint32
}

// Kernel is the RISC-V kernel instance: the port-neutral core over the
// RV32 machine. The embedded supervision settings (FaultPolicy,
// MaxRestarts, BackoffBase, Watchdog, Hooks) may be set any time before
// Run; observers attach through Attach, before LoadProcess.
type Kernel struct {
	coreKernel
	supervision

	Machine *rv32.Machine
	Chip    riscv.ChipConfig

	Timeslice  uint64
	poolCursor uint32
	nextFlash  uint32
}

// Switches returns the number of completed context switches.
func (k *Kernel) Switches() uint64 { return k.coreKernel.Switches }

// New boots a RISC-V kernel on the given chip.
func New(chip riscv.ChipConfig) (*Kernel, error) {
	mem := physmem.NewMemory()
	if _, err := mem.Map("flash", FlashBase, FlashSize); err != nil {
		return nil, err
	}
	if _, err := mem.Map("ram", RAMBase, RAMSize); err != nil {
		return nil, err
	}
	m := rv32.NewMachine(mem, chip)
	k := &Kernel{
		Machine:    m,
		Chip:       chip,
		Timeslice:  10000,
		poolCursor: ProcessPoolBase,
		nextFlash:  AppFlashBase,
	}
	k.coreKernel = kcore.New(kcore.Config[*Process, uint32]{
		Port:        rvPort{k},
		Supervision: &k.supervision,
		Machine:     m,
		Meter:       m.Meter,
		Memory:      mem,
		Classes:     kcore.SVCExit + 1,
		MPULabel:    "pmp",
		TickLabel:   "mtimer",
		// LEDCycles stays 0: this port's LED model has never charged
		// an MMIO access, and its blink results are recorded that way.
	})
	return k, nil
}

// SetFastCore enables or disables the machine's block-cache fast core
// (rv32.Machine.SetFastCore); observable behaviour is unchanged.
func (k *Kernel) SetFastCore(on bool) { k.Machine.SetFastCore(on) }

// allocFlashSlot reserves a 4-byte aligned flash slot (the PMP has no
// power-of-two constraint in TOR mode; NAPOT chips get pow2 slots).
func (k *Kernel) allocFlashSlot(need uint32) (uint32, uint32, error) {
	size := need
	var base uint32
	if k.Chip.TORSupported {
		size = (size + 3) &^ 3
		base = (k.nextFlash + 3) &^ 3
	} else {
		size = 8
		for size < need {
			size <<= 1
		}
		base = (k.nextFlash + size - 1) &^ (size - 1)
	}
	if uint64(base)+uint64(size) > FlashBase+FlashSize {
		return 0, 0, fmt.Errorf("rvkernel: flash exhausted")
	}
	k.nextFlash = base + size
	return base, size, nil
}

// LoadProcess loads an application: TBF header in flash, program mapped,
// memory allocated through the generic granular allocator over the PMP
// driver.
func (k *Kernel) LoadProcess(app App) (*Process, error) {
	t0 := k.Machine.Meter.Cycles()
	defer func() { k.Attr(t0, nil, "create") }()
	// Build where the next slot puts the code, as the ARM loader does.
	guess := (k.nextFlash+3)&^3 + tbf.HeaderSize
	prog := app.Build(guess)
	imageSize := uint32(tbf.HeaderSize) + uint32(4*len(prog.Instrs))
	slotBase, slotSize, err := k.allocFlashSlot(imageSize)
	if err != nil {
		return nil, err
	}
	hdr := &tbf.Header{
		TotalSize:   slotSize,
		EntryOffset: tbf.HeaderSize,
		MinRAMSize:  app.MinRAM,
		InitRAMSize: app.InitRAM,
		StackSize:   app.Stack,
		KernelHint:  app.KernelHint,
		Name:        app.Name,
	}
	raw, err := hdr.Encode()
	if err != nil {
		return nil, err
	}
	if err := k.Machine.Mem.WriteBytes(slotBase, raw); err != nil {
		return nil, err
	}
	parsed, err := tbf.Parse(raw)
	if err != nil {
		return nil, err
	}

	codeBase := slotBase + parsed.EntryOffset
	if codeBase != guess {
		prog = app.Build(codeBase)
	}
	if err := k.Machine.LoadProgram(prog); err != nil {
		return nil, err
	}

	drv := core.NewPMPMPU(k.Machine.PMP)
	drv.Meter = k.Machine.Meter
	if k.Metrics != nil {
		drv.Writes = k.Metrics.Counter("riscv_pmp_entry_writes_total",
			metrics.L("flavour", k.FlavourName()))
	}
	alloc := core.NewAllocator[core.PMPRegion](drv, core.Config{Meter: k.Machine.Meter})
	poolLeft := ProcessPoolBase + ProcessPoolSize - k.poolCursor
	if err := alloc.AllocateAppMemory(k.poolCursor, poolLeft,
		parsed.MinRAMSize, parsed.InitRAMSize, parsed.KernelHint, slotBase, slotSize); err != nil {
		return nil, fmt.Errorf("rvkernel: loading %s: %w", app.Name, err)
	}
	b := alloc.Breaks()
	k.poolCursor = (b.MemoryEnd() + 7) &^ 7

	p := &Process{
		coreProcess:  kcore.NewProcess(len(k.Procs), parsed.Name, codeBase),
		Alloc:        alloc,
		initialBreak: b.AppBreak(),
		stackSize:    parsed.StackSize,
	}
	p.initialContext()
	k.Procs = append(k.Procs, p)
	return p, nil
}

// initialContext sets the registers a process starts with: sp at the
// stack top (clamped to the break), app arguments in a0-a3 as the ARM
// port passes them in r0-r3, and the pc at the entry point.
func (p *Process) initialContext() {
	b := p.Alloc.Breaks()
	stackTop := b.MemoryStart() + p.stackSize
	if p.stackSize == 0 || stackTop > b.AppBreak() {
		stackTop = b.AppBreak()
	}
	p.Regs = [32]uint32{}
	p.Regs[rv32.SP] = stackTop &^ 7
	p.Regs[rv32.A0] = b.MemoryStart()
	p.Regs[rv32.A1] = b.AppBreak()
	p.Regs[rv32.A2] = b.MemoryEnd()
	p.Regs[rv32.A3] = b.FlashStart()
	p.PC = p.Entry
}

// rvPort is the RV32 glue the port-neutral core drives: the PMP behind
// the granular allocator, the machine timer, a kernel-saved register
// file and the wake-only alarm set.
type rvPort struct{ k *Kernel }

// Protect programs the PMP.
func (g rvPort) Protect(p *Process) error { return p.Alloc.ConfigureMPU() }

// Restore loads the register file, arms the timer and drops to user
// mode at the saved pc.
func (g rvPort) Restore(p *Process) error {
	m := g.k.Machine
	m.X = p.Regs
	m.Timer.Arm(g.k.Timeslice)
	m.ResumeUser(p.PC)
	return nil
}

// RunUser runs the process until a trap stops it.
func (g rvPort) RunUser(p *Process) (kcore.Trap[uint32], error) {
	m := g.k.Machine
	stop, err := m.Run(0)
	if err != nil {
		return kcore.Trap[uint32]{}, err
	}
	t := kcore.Trap[uint32]{Fault: stop.Fault, Reason: stop.Reason.String()}
	switch stop.Reason {
	case rv32.StopTimer:
		t.Kind = kcore.TrapPreempt
	case rv32.StopEcall:
		t.Kind, t.Class = kcore.TrapSyscall, m.X[rv32.A7]
	case rv32.StopFault:
		t.Kind = kcore.TrapFault
	case rv32.StopWFI:
		t.Kind = kcore.TrapExit
	default:
		return t, fmt.Errorf("rvkernel: unexpected stop %v", stop.Reason)
	}
	return t, nil
}

// Save copies the register file out (no hardware stacking on RISC-V —
// the kernel does it, as Tock's trap handler does) and disarms the
// timer. A syscall resumes past its ecall; anything else at the trapped
// pc.
func (g rvPort) Save(p *Process, kind kcore.TrapKind) {
	m := g.k.Machine
	p.Regs = m.X
	p.PC = m.CSR.MEPC
	if kind == kcore.TrapSyscall {
		p.PC += 4
	}
	m.Timer.Disarm()
}

// Args reads a0..a3 from the saved register file. A rewritten a3
// persists there, so the process sees it when it resumes; the rewritten
// a0..a2 reach the dispatcher only.
func (g rvPort) Args(p *Process, class uint32) ([4]uint32, error) {
	args := [4]uint32{p.Regs[rv32.A0], p.Regs[rv32.A1], p.Regs[rv32.A2], p.Regs[rv32.A3]}
	if h := g.k.Hooks.SyscallArgs; h != nil {
		args = h(p, class, args)
		p.Regs[rv32.A3] = args[3]
	}
	return args, nil
}

// SetReturn writes the return value into the saved a0.
func (g rvPort) SetReturn(p *Process, ret uint32) error {
	p.Regs[rv32.A0] = ret
	return nil
}

// Memory returns the process's allocator.
func (g rvPort) Memory(p *Process) kcore.Memory { return allocMemory{p.Alloc} }

// Service runs f with no accounting of its own: its services charge
// only what the allocator charges, and the port records no per-method
// statistics, which would add ticktock_method_cycles series to its
// metric expositions.
func (g rvPort) Service(_ string, f func()) { f() }

// Syscall serves the alarm set: it only records the wake time, with no
// grant and no upcall.
func (g rvPort) Syscall(p *Process, class uint32, a [4]uint32) (uint32, bool, error) {
	if class == kcore.SVCCommand && a[0] == kcore.DriverAlarm && a[1] == 1 {
		p.WakeAt = g.k.Machine.Meter.Cycles() + uint64(a[2])
		return kcore.RetSuccess, true, nil
	}
	return kcore.RetInvalid, true, nil
}

// Wake has nothing to deliver: the port has no upcalls.
func (g rvPort) Wake(*Process, uint64) error { return nil }

// Reset restores the initial break, zeroes the accessible RAM and
// rebuilds the initial register file.
func (g rvPort) Reset(p *Process) error {
	if p.initialBreak != 0 && p.initialBreak != p.Alloc.Breaks().AppBreak() {
		if err := p.Alloc.Brk(p.initialBreak); err != nil {
			return err
		}
	}
	b := p.Alloc.Breaks()
	if _, err := kcore.ZeroWords(g.k.Machine.Mem, b.MemoryStart(), b.AppBreak()); err != nil {
		return err
	}
	p.initialContext()
	return nil
}

// FaultReport prints the memory layout.
func (g rvPort) FaultReport(p *Process) string {
	return fmt.Sprintf("layout: %s\n", p.Alloc.Breaks().String())
}

// Context reports the saved pc and register file.
func (g rvPort) Context(p *Process) (string, uint64, uint64) {
	var regs [32 * 4]byte
	for i, r := range p.Regs {
		binary.LittleEndian.PutUint32(regs[i*4:], r)
	}
	return "pc", uint64(p.PC), flightrec.DigestBytes(regs[:])
}

// Flavour labels metrics with the chip: "rv32-<chip>".
func (g rvPort) Flavour() string { return "rv32-" + g.k.Chip.Name }

// Observe has no machine-level instruments to wire: the PMP drivers
// pick up their write counters at LoadProcess.
func (g rvPort) Observe(kcore.Observe) {}

// allocMemory is the process allocator seen through kcore.Memory.
type allocMemory struct {
	*core.AppMemoryAllocator[core.PMPRegion]
}

// Layout reads the layout out of the allocator's breaks.
func (m allocMemory) Layout() kcore.Layout {
	b := m.Breaks()
	return kcore.Layout{
		MemoryStart: b.MemoryStart(),
		MemorySize:  b.MemorySize(),
		AppBreak:    b.AppBreak(),
		KernelBreak: b.KernelBreak(),
		FlashStart:  b.FlashStart(),
		FlashSize:   b.FlashSize(),
	}
}
