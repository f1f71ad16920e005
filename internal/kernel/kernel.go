package kernel

import (
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
	"ticktock/internal/tbf"
)

// Flavour selects which memory-management implementation backs the kernel.
type Flavour uint8

// Kernel flavours.
const (
	// FlavourTickTock uses the verified granular abstraction.
	FlavourTickTock Flavour = iota
	// FlavourTock uses the monolithic baseline (optionally with bugs).
	FlavourTock
)

// String implements fmt.Stringer.
func (f Flavour) String() string {
	if f == FlavourTock {
		return "tock"
	}
	return "ticktock"
}

// ParseFlavour returns the flavour whose String is name.
func ParseFlavour(name string) (Flavour, bool) {
	switch name {
	case "ticktock":
		return FlavourTickTock, true
	case "tock":
		return FlavourTock, true
	}
	return 0, false
}

// FaultPolicy decides what happens to a faulting process (Tock's
// ProcessFaultPolicy).
type FaultPolicy = kcore.FaultPolicy

// Fault policies.
const (
	PolicyStop       = kcore.PolicyStop
	PolicyRestart    = kcore.PolicyRestart
	PolicyQuarantine = kcore.PolicyQuarantine
)

// Scheduler selects the scheduling discipline, mirroring Tock's
// pluggable schedulers.
type Scheduler = kcore.Scheduler

// Scheduler disciplines.
const (
	SchedRoundRobin  = kcore.SchedRoundRobin
	SchedCooperative = kcore.SchedCooperative
	SchedPriority    = kcore.SchedPriority
)

// Options configures a kernel build.
type Options struct {
	Flavour Flavour
	// Scheduler selects the scheduling discipline.
	Scheduler Scheduler
	// FaultPolicy, MaxRestarts, BackoffBase, Watchdog and Hooks are the
	// fault-supervision settings; kcore.Supervision documents each.
	FaultPolicy FaultPolicy
	MaxRestarts int
	BackoffBase uint64
	Watchdog    int
	Hooks       FaultHooks
	// Bugs enables the faithful bug reproductions (monolithic flavour
	// only, except MissedModeSwitch which lives in the shared
	// context-switch path).
	Bugs monolithic.BugSet
	// Timeslice is the SysTick reload per scheduling quantum.
	Timeslice uint32
	// Observe names the observers New attaches (kcore.Observe documents
	// each). On this port metrics also carry Figure 11's per-method
	// cycle histograms and the machine's instruction and exception
	// counts, and the trace carries exception entry and return events.
	// None charges the cycle meter, so an observed run reports the same
	// Figure 11/12 numbers as a bare one.
	Observe kcore.Observe
	// FastCore enables the machine's block-cache fast core
	// (armv7m.Machine.SetFastCore): predecoded basic blocks with
	// accessmap-backed batch execute checks and load/store interval
	// hints. Observable behaviour is byte-identical with the oracle
	// core — the core-oracle difftests and the internal/specs
	// block-cache obligations pin it — only speed changes.
	FastCore bool
}

// DefaultTimeslice matches a 10 ms quantum at the modelled clock.
const DefaultTimeslice = 10000

// FaultHooks are the kernel-side fault-injection points; the SVC
// immediate is the syscall class.
type FaultHooks = kcore.FaultHooks[*Process, uint8]

// App describes an application to load: its metadata and a builder that
// assembles the program at its final flash address.
type App struct {
	Name       string
	MinRAM     uint32 // declared total RAM need
	InitRAM    uint32 // initially-accessible RAM (stack + data + heap)
	Stack      uint32 // portion of InitRAM that is stack
	KernelHint uint32 // grant-region size hint
	// Build assembles the program with its code based at codeBase. It
	// may return one shared Program for every call at a base: kernels
	// never write a loaded program.
	Build func(codeBase uint32) *armv7m.Program
}

// coreKernel, coreProcess and supervision are the port-neutral kernel
// under unexported names, so this port's API gains only their promoted
// fields and methods.
type (
	coreKernel  = kcore.Kernel[*Process, uint8]
	coreProcess = kcore.Process
	supervision = kcore.Supervision[*Process, uint8]
)

// Kernel is the operating system instance: the port-neutral core
// (process table, scheduler, fault supervision, instrumentation) over
// the ARMv7-M board, with Figure 11's method statistics.
type Kernel struct {
	coreKernel

	Board *Board
	Opts  Options
	Stats *Stats

	// sup is the core's view of Opts' supervision settings.
	sup supervision

	// poolCursor tracks unallocated process RAM.
	poolCursor uint32

	// methodHist caches the per-method cycle histograms (metrics only).
	methodHist map[string]*metrics.Histogram
}

// New boots a kernel on a fresh board.
func New(opts Options) (*Kernel, error) {
	b, err := NewBoard()
	if err != nil {
		return nil, err
	}
	if opts.Timeslice == 0 {
		opts.Timeslice = DefaultTimeslice
	}
	if opts.FastCore {
		b.Machine.SetFastCore(true)
	}
	k := &Kernel{
		Board:      b,
		Opts:       opts,
		Stats:      NewStats(),
		poolCursor: ProcessPoolBase,
		sup: supervision{
			FaultPolicy: opts.FaultPolicy,
			MaxRestarts: opts.MaxRestarts,
			BackoffBase: opts.BackoffBase,
			Watchdog:    opts.Watchdog,
			Hooks:       opts.Hooks,
		},
	}
	k.coreKernel = kcore.New(kcore.Config[*Process, uint8]{
		Port:        armPort{k},
		Supervision: &k.sup,
		Machine:     b.Machine,
		Meter:       b.Meter,
		Memory:      b.Machine.Mem,
		Classes:     SVCUpcallDone + 1,
		Scheduler:   opts.Scheduler,
		LEDCycles:   cycles.MMIO,
	})
	k.Attach(opts.Observe)
	return k, nil
}

// instrument measures the meter delta of f under the method name.
func (k *Kernel) instrument(method string, f func() error) error {
	start := k.Meter().Cycles()
	err := f()
	d := k.Meter().Cycles() - start
	k.Stats.Record(method, d)
	if k.Metrics != nil {
		h := k.methodHist[method]
		if h == nil {
			h = k.Metrics.Histogram("ticktock_method_cycles",
				metrics.L("flavour", k.FlavourName()), metrics.L("method", method))
			k.methodHist[method] = h
		}
		h.Observe(d)
	}
	return err
}

// PublishMetrics copies end-of-run aggregates into the attached
// registry: the Figure 11 per-method call/cycle totals (as
// ticktock_method_calls_total / ticktock_method_cycles_total) and the
// fast-core counters; the context-switch count already streams live.
// Call it once when the run being exported is complete; no-op without
// metrics.
func (k *Kernel) PublishMetrics() {
	if k.Metrics == nil {
		return
	}
	k.Stats.Publish(k.Metrics, k.FlavourName())
	k.PublishCoreStats()
}

// newMM builds the flavour-appropriate memory manager.
func (k *Kernel) newMM() MemoryManager {
	if k.Opts.Flavour == FlavourTock {
		return NewMonolithicMM(k.Board.Machine.MPU, k.Meter(), k.Opts.Bugs)
	}
	return NewGranularMM(k.Board.Machine.MPU, k.Meter(), 0)
}

// LoadProcess loads an application: writes its TBF image into a flash
// slot, registers the program, allocates and zeroes its memory block, and
// builds the initial stack frame. This is the instrumented `create` path
// of Figure 11.
func (k *Kernel) LoadProcess(app App) (*Process, error) {
	var proc *Process
	t0 := k.Meter().Cycles()
	defer func() { k.Attr(t0, nil, "create") }()
	err := k.instrument("create", func() error {
		// Build the program where the next flash slot puts its code and
		// size the image from it. Branch targets are absolute, so a
		// size that needs a more aligned slot means one more build at
		// the real base. The release apps keep each build, so a later
		// kernel loading the same App at the same slot assembles
		// nothing.
		guess := k.Board.nextFlashSlot + tbf.HeaderSize
		prog := app.Build(guess)
		codeBytes := uint32(4 * len(prog.Instrs))
		// One extra slot word holds the injected upcall-return stub.
		imageSize := uint32(tbf.HeaderSize) + codeBytes + 4

		slotBase, slotSize, err := k.Board.AllocFlashSlot(imageSize)
		if err != nil {
			return err
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
			return err
		}
		if err := k.Board.WriteFlash(slotBase, raw); err != nil {
			return err
		}
		k.Meter().Add(uint64(len(raw)) / 4 * cycles.Store)

		// The loader re-parses the header from flash, as Tock does.
		flashBytes, err := k.Board.Machine.Mem.ReadBytes(slotBase, uint32(tbf.HeaderSize))
		if err != nil {
			return err
		}
		parsed, err := tbf.Parse(flashBytes)
		if err != nil {
			return err
		}
		k.Meter().Add(uint64(tbf.HeaderSize) / 4 * cycles.Load)

		codeBase := slotBase + parsed.EntryOffset
		if codeBase != guess {
			prog = app.Build(codeBase)
		}
		if err := k.Board.Machine.LoadProgram(prog); err != nil {
			return err
		}
		// Inject the upcall-return stub right after the program: upcall
		// frames point LR here so a returning callback traps back into
		// the kernel (crt0 provides this in real Tock userland).
		stub := &armv7m.Program{Base: prog.End(), Instrs: []armv7m.Instr{armv7m.SVC{Imm: SVCUpcallDone}}}
		if stub.End() > slotBase+slotSize {
			return fmt.Errorf("kernel: no room for upcall stub in %s's flash slot", app.Name)
		}
		if err := k.Board.Machine.LoadProgram(stub); err != nil {
			return err
		}

		mm := k.newMM()
		poolLeft := ProcessPoolBase + ProcessPoolSize - k.poolCursor
		if err := mm.Allocate(k.poolCursor, poolLeft, parsed.MinRAMSize, parsed.InitRAMSize, parsed.KernelHint, slotBase, slotSize); err != nil {
			return fmt.Errorf("kernel: loading %s: %w", app.Name, err)
		}
		layout := mm.Layout()
		k.poolCursor = (layout.MemoryEnd() + 7) &^ 7

		// Zero the memory the process and kernel will actually use —
		// the accessible span and the grant region — charging the
		// per-word store cost, the bulk of process creation time. (The
		// gap between them is unreachable until a brk extends into it,
		// at which point it is already zero-backed RAM.)
		zeroed := uint32(0)
		for _, span := range [][2]uint32{
			{layout.MemoryStart, layout.AppBreak},
			{layout.KernelBreak, layout.MemoryEnd()},
		} {
			n, err := kcore.ZeroWords(k.Board.Machine.Mem, span[0], span[1])
			if err != nil {
				return err
			}
			zeroed += n
		}
		k.Meter().Add(uint64(zeroed) / 4 * cycles.Store)

		proc = &Process{
			coreProcess:  kcore.NewProcess(len(k.Procs), parsed.Name, codeBase),
			MM:           mm,
			Upcalls:      make(map[uint32]Upcall),
			initialBreak: layout.AppBreak,
			stackSize:    parsed.StackSize,
			upcallStub:   stub.Base,
		}
		if err := proc.buildInitialFrame(k.Board.Machine); err != nil {
			return err
		}
		k.Procs = append(k.Procs, proc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return proc, nil
}

// EnterGrant gives the caller scoped access to a grant allocation's bytes,
// the way Tock capsules enter() a grant: the span is validated to lie
// wholly inside the process's kernel-owned grant region, the closure runs
// over a copy, and mutations are written back. The process itself can
// never reach this memory (the MPU denies it), so no tearing with user
// code is possible.
func (k *Kernel) EnterGrant(p *Process, addr, size uint32, f func(b []byte) error) error {
	layout := p.MM.Layout()
	end := uint64(addr) + uint64(size)
	if addr < layout.KernelBreak || end > uint64(layout.MemoryEnd()) {
		return fmt.Errorf("kernel: grant span [0x%x,+0x%x) outside grant region [0x%x,0x%x)",
			addr, size, layout.KernelBreak, layout.MemoryEnd())
	}
	b, err := k.Board.Machine.Mem.ReadBytes(addr, size)
	if err != nil {
		return err
	}
	if err := f(b); err != nil {
		return err
	}
	return k.Board.Machine.Mem.WriteBytes(addr, b)
}

// ProcessInfo is a read-only summary row for process introspection
// (Tock's process console "list" command).
type ProcessInfo struct {
	ID       int
	Name     string
	State    State
	Restarts int
	Grants   int
	Layout   Layout
}

// ProcessTable returns a snapshot of every loaded process.
func (k *Kernel) ProcessTable() []ProcessInfo {
	out := make([]ProcessInfo, 0, len(k.Procs))
	for _, p := range k.Procs {
		out = append(out, ProcessInfo{
			ID:       p.ID,
			Name:     p.Name,
			State:    p.State,
			Restarts: p.Restarts,
			Grants:   len(p.Grants),
			Layout:   p.MM.Layout(),
		})
	}
	return out
}

// ScheduleUpcallForBench delivers an alarm upcall; exported for the
// benchmark harness. It reports whether p subscribed and the frame was
// pushed.
func (k *Kernel) ScheduleUpcallForBench(p *Process) bool {
	ok, err := k.deliverUpcall(p, DriverAlarm, 0, 0)
	return ok && err == nil
}

// IPCCopyForBench runs the kernel-mediated IPC copy; exported for the
// benchmark harness.
func (k *Kernel) IPCCopyForBench(p *Process, target uint32) uint32 {
	return k.ipcCmd(p, 0, target)
}
