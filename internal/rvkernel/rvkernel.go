// Package rvkernel is the RISC-V port of the TickTock kernel: the same
// granular MPU abstraction (internal/core over the PMP driver), the same
// TBF loader and syscall classes, running applications on the RV32
// machine model for all three supported chips. It plays the role of the
// paper's QEMU runs in §6.1: demonstrating that every release application
// runs to completion on the RISC-V targets.
//
// The port underlines the paper's reuse claim: the process allocator,
// break accounting and isolation invariants are the *same generic code*
// as the ARM kernel's, and so are the scheduler, fault supervision and
// instrumentation (internal/kcore). This package supplies only the trap
// glue, the ecall ABI and its drivers, and the machine model.
package rvkernel

import (
	"encoding/binary"
	"fmt"

	"ticktock/internal/core"
	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/tbf"
	"ticktock/internal/trace"
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

// Syscall classes, carried in a7 (our RISC-V dialect of the Tock ABI;
// args in a0..a3, return value in a0).
const (
	SVCYield   = 0
	SVCCommand = 1
	SVCAllowRW = 2
	SVCAllowRO = 3
	SVCMemop   = 4
	SVCExit    = 5
)

// Driver and memop numbers shared with the ARM kernel's dialect.
const (
	DriverConsole = 0
	DriverAlarm   = 1
	DriverTemp    = 2
	DriverLED     = 3
	DriverGrant   = 4

	MemopBrk         = 0
	MemopSbrk        = 1
	MemopMemoryStart = 2
	MemopAppBreak    = 3

	RetSuccess = 0
	RetInvalid = 0xFFFF_FFFE
	RetNoMem   = 0xFFFF_FFFD
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
	Build      func(codeBase uint32) *rv32.Program
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
// plus the RV32 saved context, the granular allocator over the PMP and
// the shared buffers.
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

	// AllowedRO/AllowedRW are the per-driver shared buffers.
	AllowedRO map[uint32][2]uint32 // driver -> {addr, len}
	AllowedRW map[uint32][2]uint32
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
		Classes:     SVCExit + 1,
		MPULabel:    "pmp",
		TickLabel:   "mtimer",
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
	probe := app.Build(0)
	imageSize := uint32(tbf.HeaderSize) + uint32(4*len(probe.Instrs))
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
	if err := k.Machine.LoadProgram(app.Build(codeBase)); err != nil {
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
		coreProcess:  coreProcess{ID: len(k.Procs), Name: parsed.Name, State: StateReady, Entry: codeBase},
		Alloc:        alloc,
		AllowedRO:    make(map[uint32][2]uint32),
		AllowedRW:    make(map[uint32][2]uint32),
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
// file and the ecall ABI.
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

// Syscall serves an ecall.
func (g rvPort) Syscall(p *Process, class uint32) error {
	g.k.handleSyscall(p, class)
	return nil
}

// Wake has nothing to deliver: the port has no upcalls.
func (g rvPort) Wake(*Process, uint64) error { return nil }

// Reset restores the initial break, zeroes the accessible RAM, drops the
// shared buffers and rebuilds the initial register file.
func (g rvPort) Reset(p *Process) error {
	if p.initialBreak != 0 && p.initialBreak != p.Alloc.Breaks().AppBreak() {
		if err := p.Alloc.Brk(p.initialBreak); err != nil {
			return err
		}
	}
	b := p.Alloc.Breaks()
	for addr := b.MemoryStart(); addr < b.AppBreak(); addr += 4 {
		if err := g.k.Machine.Mem.WriteWord(addr, 0); err != nil {
			return err
		}
	}
	clear(p.AllowedRO)
	clear(p.AllowedRW)
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

// handleSyscall dispatches an ecall: class in a7, args a0..a3, return a0.
func (k *Kernel) handleSyscall(p *Process, class uint32) {
	a0, a1, a2 := p.Regs[rv32.A0], p.Regs[rv32.A1], p.Regs[rv32.A2]
	if h := k.Hooks.SyscallArgs; h != nil {
		a := h(p, class, [4]uint32{a0, a1, a2, p.Regs[rv32.A3]})
		a0, a1, a2 = a[0], a[1], a[2]
		p.Regs[rv32.A3] = a[3]
	}
	var ret uint32 = RetSuccess
	if k.Tracer() != nil {
		k.Emit(trace.KindSyscallEnter, p, uint64(class), uint64(a0), k.ClassName(class))
		defer func() { k.Emit(trace.KindSyscallExit, p, uint64(class), uint64(ret), k.ClassName(class)) }()
	}

	switch class {
	case SVCYield:
		if p.WakeAt != 0 && p.WakeAt > k.Machine.Meter.Cycles() {
			p.State = StateYielded
		}
	case SVCCommand:
		ret = k.command(p, a0, a1, a2)
	case SVCAllowRO, SVCAllowRW:
		kind := mpu.AccessRead
		table := p.AllowedRO
		if class == SVCAllowRW {
			kind = mpu.AccessWrite
			table = p.AllowedRW
		}
		switch {
		case a2 == 0:
			delete(table, a0)
		case !p.Alloc.UserCanAccess(a1, a2, kind):
			ret = RetInvalid
		default:
			table[a0] = [2]uint32{a1, a2}
		}
	case SVCMemop:
		ret = k.memop(p, a0, a1)
	case SVCExit:
		p.State = StateExited
		p.ExitCode = a0
		return
	default:
		ret = RetInvalid
	}
	switch ret {
	case RetInvalid, RetNoMem:
		k.SyscallErrors++
	}
	if h := k.Hooks.SyscallRet; h != nil {
		ret = h(p, class, ret)
	}
	p.Regs[rv32.A0] = ret
}

// memop mirrors the ARM kernel's memop dialect.
func (k *Kernel) memop(p *Process, op, arg uint32) uint32 {
	b := p.Alloc.Breaks()
	switch op {
	case MemopBrk:
		if err := p.Alloc.Brk(arg); err != nil {
			k.Emit(trace.KindBrk, p, uint64(arg), 0, "brk")
			return RetInvalid
		}
		k.Emit(trace.KindBrk, p, uint64(arg), uint64(p.Alloc.Breaks().AppBreak()), "brk")
		return RetSuccess
	case MemopSbrk:
		nb, err := p.Alloc.Sbrk(int32(arg))
		if err != nil {
			k.Emit(trace.KindBrk, p, uint64(arg), 0, "sbrk")
			return RetInvalid
		}
		k.Emit(trace.KindBrk, p, uint64(arg), uint64(nb), "sbrk")
		return nb
	case MemopMemoryStart:
		return b.MemoryStart()
	case MemopAppBreak:
		return b.AppBreak()
	default:
		return RetInvalid
	}
}

// command hosts the same driver set as the ARM kernel.
func (k *Kernel) command(p *Process, driver, cmd, arg2 uint32) uint32 {
	switch driver {
	case DriverConsole:
		switch cmd {
		case 0:
			k.AppendOutput(p, string(rune(arg2&0x7F)))
			k.Machine.Meter.Add(cycles.MMIO)
			return RetSuccess
		case 1:
			buf, ok := p.AllowedRO[DriverConsole]
			if !ok {
				return RetInvalid
			}
			n := min(arg2, buf[1])
			data, err := k.Machine.Mem.ReadBytes(buf[0], n)
			if err != nil {
				return RetInvalid
			}
			k.Machine.Meter.Add(uint64(n) * cycles.Load)
			k.AppendOutput(p, string(data))
			return n
		}
		return RetInvalid
	case DriverAlarm:
		switch cmd {
		case 0:
			return uint32(k.Machine.Meter.Cycles() >> 6)
		case 1:
			p.WakeAt = k.Machine.Meter.Cycles() + uint64(arg2)
			return RetSuccess
		}
		return RetInvalid
	case DriverTemp:
		if cmd == 0 {
			return 2200 + uint32(k.Machine.Meter.Cycles()%997)
		}
		return RetInvalid
	case DriverLED:
		if int(arg2) >= len(k.LEDs) {
			return RetInvalid
		}
		switch cmd {
		case 0:
			k.LEDs[arg2] = !k.LEDs[arg2]
		case 1:
			k.LEDs[arg2] = true
		case 2:
			k.LEDs[arg2] = false
		default:
			return RetInvalid
		}
		return RetSuccess
	case DriverGrant:
		if cmd != 0 {
			return RetInvalid
		}
		addr, err := p.Alloc.AllocateGrant(arg2)
		if err != nil {
			k.Emit(trace.KindGrantAlloc, p, uint64(arg2), 0, "grant")
			return RetNoMem
		}
		p.Grants = append(p.Grants, addr)
		k.Emit(trace.KindGrantAlloc, p, uint64(arg2), uint64(addr), "grant")
		return RetSuccess
	default:
		return RetInvalid
	}
}
