// Package kcore is the port-neutral half of the TickTock kernel. It holds
// the one copy of everything that does not depend on the instruction
// set: the process lifecycle, the fault policy (stop, restart with
// exponential backoff, quarantine), the software watchdog, the
// scheduler, the RunOnce/Run skeleton, console output, the trace,
// metrics, profile and flight-recorder plumbing, and the syscall ABI:
// the dispatcher, allow, memop, and the console, alarm-read,
// temperature, LED and grant drivers (abi.go).
//
// A port embeds a Kernel and supplies the ISA glue through Port:
// internal/kernel for ARMv7-M (both flavours) and internal/rvkernel for
// RV32. This is the paper's reuse argument (Fig 4b) one level up:
// internal/core makes the allocator generic over the protection unit,
// and kcore makes the kernel generic over the ISA. The package imports
// no ISA package, no allocator and no port (TestImportsNoPort).
package kcore

import (
	"fmt"

	"ticktock/internal/blockcache"
	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/metrics"
	"ticktock/internal/physmem"
	"ticktock/internal/trace"
)

// State is a process lifecycle state.
type State uint8

// Process states.
const (
	// StateReady: runnable.
	StateReady State = iota
	// StateYielded: waiting for an upcall (timer or event).
	StateYielded
	// StateExited: terminated voluntarily.
	StateExited
	// StateFaulted: terminated by the kernel after a fault.
	StateFaulted
	// StateQuarantined: permanently isolated by the kernel after
	// exhausting its restart budget under PolicyQuarantine. A quarantined
	// process is never scheduled again, but the board keeps running —
	// the graceful-degradation terminal state.
	StateQuarantined
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateYielded:
		return "yielded"
	case StateExited:
		return "exited"
	case StateFaulted:
		return "faulted"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// FaultPolicy decides what happens to a faulting process (Tock's
// ProcessFaultPolicy).
type FaultPolicy uint8

// Fault policies.
const (
	// PolicyStop terminates the faulting process (the default).
	PolicyStop FaultPolicy = iota
	// PolicyRestart resets the process and restarts it from its entry
	// point, up to MaxRestarts times.
	PolicyRestart
	// PolicyQuarantine restarts like PolicyRestart, but when the restart
	// budget is exhausted the process is quarantined instead of left
	// faulted: a distinct terminal state the kernel reports while it
	// keeps serving every other process (graceful degradation).
	PolicyQuarantine
)

// Scheduler selects the scheduling discipline, mirroring Tock's
// pluggable schedulers.
type Scheduler uint8

// Scheduler disciplines.
const (
	// SchedRoundRobin preempts on the quantum timer and rotates (the
	// default).
	SchedRoundRobin Scheduler = iota
	// SchedCooperative never arms the timer: processes run until they
	// yield, block or exit.
	SchedCooperative
	// SchedPriority always runs the lowest-ID runnable process
	// (load order is priority order), preempting with the timer.
	SchedPriority
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case SchedCooperative:
		return "cooperative"
	case SchedPriority:
		return "priority"
	default:
		return "round-robin"
	}
}

// Process is the port-neutral part of a process record. A port's process
// type embeds it and adds its saved context and memory manager.
type Process struct {
	ID    int
	Name  string
	State State

	// Entry is the program entry point in flash.
	Entry uint32

	// WakeAt, when non-zero, is the meter cycle count at which a
	// yielded process becomes ready again (alarm driver).
	WakeAt uint64

	// ExitCode is set on voluntary exit.
	ExitCode uint32
	// FaultReason describes why the process was faulted.
	FaultReason string

	// Grants tracks allocated grant bases, oldest first.
	Grants []uint32

	// AllowedRO/AllowedRW are the per-driver shared buffers.
	AllowedRO map[uint32]Buffer
	AllowedRW map[uint32]Buffer

	// Restarts counts kernel-initiated restarts (fault policy).
	Restarts int

	// consecPreempts counts consecutive full-timeslice preemptions with
	// no intervening syscall — the software watchdog's staleness signal.
	consecPreempts int

	// output accumulates the process's console output.
	output []byte
}

// NewProcess returns the record of a freshly loaded process, ready to
// run from entry.
func NewProcess(id int, name string, entry uint32) Process {
	return Process{
		ID: id, Name: name, State: StateReady, Entry: entry,
		AllowedRO: make(map[uint32]Buffer),
		AllowedRW: make(map[uint32]Buffer),
	}
}

// Runnable reports whether the scheduler may pick the process.
func (p *Process) Runnable(now uint64) bool {
	switch p.State {
	case StateReady:
		return true
	case StateYielded:
		return p.WakeAt != 0 && now >= p.WakeAt
	default:
		return false
	}
}

// Alive reports whether the process can ever run again.
func (p *Process) Alive() bool {
	return p.State == StateReady || p.State == StateYielded
}

// Output returns the process's accumulated console output.
func (p *Process) Output() string { return string(p.output) }

func (p *Process) record() *Process { return p }

// Proc is satisfied by a pointer to a port's process type that embeds
// Process.
type Proc interface {
	comparable
	record() *Process
}

// Class is a port's syscall-class type: the SVC immediate on ARM, a7 on
// RISC-V.
type Class interface{ ~uint8 | ~uint32 }

// FaultHooks are the kernel-side fault-injection points. Every field is
// optional: a nil hook costs one pointer check and zero simulated cycles,
// so hook-free kernels are cycle-identical to pre-hook builds. Hooks
// observe and rewrite values but must not touch kernel state — the model
// is corruption on the trap path (a flipped stacked register), not a
// misbehaving kernel.
type FaultHooks[P any, C Class] struct {
	// SyscallArgs may rewrite the four argument registers of a syscall
	// before dispatch (stacked r0..r3 on ARM, a0..a3 on RISC-V).
	SyscallArgs func(p P, class C, args [4]uint32) [4]uint32
	// SyscallRet may rewrite the return value before it reaches the
	// process.
	SyscallRet func(p P, class C, ret uint32) uint32
	// QuantumStart fires after a context switch completes (protection
	// programmed, timer armed), immediately before user code runs — the
	// injection point for upsets that strike hardware state while user
	// code owns the pipeline.
	QuantumStart func(p P)
}

// Supervision configures the kernel's response to misbehaving
// processes. The core reads it at every fault and quantum, so changes
// take effect immediately.
type Supervision[P any, C Class] struct {
	// FaultPolicy selects the response to process faults.
	FaultPolicy FaultPolicy
	// MaxRestarts bounds PolicyRestart and PolicyQuarantine (0 means 3,
	// Tock's default).
	MaxRestarts int
	// BackoffBase, when non-zero, delays every policy-initiated restart
	// by BackoffBase << (restarts-1) cycles — exponential backoff, so a
	// persistently-crashing process consumes geometrically less of the
	// board. Zero restarts immediately.
	BackoffBase uint64
	// Watchdog, when non-zero, is the number of consecutive
	// full-timeslice preemptions (no intervening syscall) after which
	// the kernel declares a process runaway and faults it. Zero disables
	// the watchdog.
	Watchdog int
	// Hooks are the fault-injection points (normally zero; the campaign
	// engine installs them).
	Hooks FaultHooks[P, C]
}

// TrapKind classifies what stopped user code.
type TrapKind uint8

// Trap kinds.
const (
	// TrapPreempt: the quantum timer expired.
	TrapPreempt TrapKind = iota
	// TrapSyscall: the process made a syscall.
	TrapSyscall
	// TrapFault: the process faulted.
	TrapFault
	// TrapExit: the process idled outside an exception (WFI) — a clean
	// exit with no context to resume.
	TrapExit
)

// Trap is what stopped user code.
type Trap[C Class] struct {
	Kind TrapKind
	// Class is the syscall class of a TrapSyscall.
	Class C
	// Fault is the cause of a TrapFault.
	Fault error
	// Reason is the machine's stop reason, the label of the
	// context-switch event and the quantum's flight-recorder checkpoint.
	Reason string
}

// Port is the ISA glue a kernel port supplies to the core. The core
// serves the syscall ABI; the port supplies the argument and return
// registers, the process's memory manager, its accounting around a
// service, and the classes and driver commands only it has.
type Port[P Proc, C Class] interface {
	// Protect programs the protection unit for p (the instrumented
	// setup_mpu path).
	Protect(p P) error
	// Restore restores p's saved context, arms the quantum timer and
	// drops to user mode.
	Restore(p P) error
	// RunUser runs user code to the next trap.
	RunUser(p P) (Trap[C], error)
	// Save captures p's context after a trap of the given kind and
	// disarms the quantum timer.
	Save(p P, kind TrapKind)
	// Args returns the four argument registers of p's syscall, as the
	// SyscallArgs hook, if one is set, rewrote them.
	Args(p P, class C) ([4]uint32, error)
	// SetReturn delivers a syscall's return value to p.
	SetReturn(p P, ret uint32) error
	// Memory returns p's memory manager.
	Memory(p P) Memory
	// Service runs f, a kernel method the ABI serves (allow, brk, a
	// grant allocation), inside the port's accounting for method.
	Service(method string, f func())
	// Syscall serves what only this port has: a class above SVCExit,
	// or a command to a driver or command the core does not host. It
	// returns the value to deliver; deliver is false when the port has
	// already resumed p itself, and then the core neither counts an
	// error, nor runs the SyscallRet hook, nor delivers ret.
	Syscall(p P, class C, args [4]uint32) (ret uint32, deliver bool, err error)
	// Wake runs when the scheduler wakes p from a timed sleep at cycle
	// now, before p resumes.
	Wake(p P, now uint64) error
	// Reset prepares p to restart from its entry point: memory, shared
	// buffers and initial context. The core resets the port-neutral
	// record.
	Reset(p P) error
	// FaultReport returns the port's fault-report lines for p, printed
	// after the "panic:" line.
	FaultReport(p P) string
	// Context reports p's saved context for the flight recorder: the
	// name and value of its resume-point field and a digest of its saved
	// registers.
	Context(p P) (field string, value, regs uint64)
	// Flavour names the port for metric and profile labels.
	Flavour() string
	// Observe wires port-specific instruments to the observers Attach
	// received.
	Observe(o Observe)
}

// Machine is what the core reads from a port's machine model.
type Machine interface {
	FlightFields() []flightrec.Field
	FastStats() *blockcache.Stats
}

// Config describes a port to the core.
type Config[P Proc, C Class] struct {
	Port Port[P, C]
	// Supervision is owned by the port, so its settings can live where
	// the port's API exposes them.
	Supervision *Supervision[P, C]
	Machine     Machine
	Meter       *cycles.Meter
	// Memory is the physical memory the flight recorder tracks.
	Memory *physmem.Memory
	// Classes is the number of syscall classes the port's ABI defines,
	// a prefix of the names ClassName knows.
	Classes int
	// MPULabel and TickLabel label the mpu-config and systick trace
	// events.
	MPULabel, TickLabel string
	Scheduler           Scheduler
	// LEDCycles is what an LED command charges the meter.
	LEDCycles uint64
}

// Observe names the observers a kernel reports to. Each is optional,
// and none charges the cycle meter, so an observed run is cycle-identical
// to an unobserved one.
type Observe struct {
	// Trace receives kernel events (syscalls, context switches, faults,
	// ...).
	Trace *trace.Tracer
	// Metrics receives per-class syscall counters and cycle histograms,
	// context-switch, fault, restart, watchdog and quarantine counters,
	// a protection-reconfigure histogram, and the folded-stack cycle
	// profile (Kernel.Profile).
	Metrics *metrics.Registry
	// FlightRec records one full machine snapshot per scheduling
	// quantum, interleaved with the trace stream, for deterministic
	// replay and divergence bisection.
	FlightRec *flightrec.Recorder
}

// Counters are the kernel's event counts.
type Counters struct {
	// Switches counts completed context switches.
	Switches uint64
	// SyscallErrors counts syscalls that returned an error code — the
	// kernel's first line of defence against corrupted arguments, and
	// the signal the fault campaign reads to classify argument
	// corruption as detected.
	SyscallErrors uint64
	// Faults counts every process fault the policy handled, whatever it
	// decided afterwards.
	Faults uint64
	// WatchdogFires counts software-watchdog activations; Quarantines
	// counts processes placed in StateQuarantined.
	WatchdogFires uint64
	Quarantines   uint64
}

// classNames name the syscall classes both ports number alike; a port's
// ABI defines a prefix of them (Config.Classes).
var classNames = [...]string{"yield", "command", "allow-rw", "allow-ro", "memop", "exit", "subscribe", "upcall-done"}

// classWindows are the precomputed folded-stack window names for each
// syscall class, so the profile hot path never concatenates strings.
var classWindows = [...]string{
	"syscall/yield", "syscall/command", "syscall/allow-rw", "syscall/allow-ro",
	"syscall/memop", "syscall/exit", "syscall/subscribe", "syscall/upcall-done",
}

// ZeroWords clears process memory [start, end) as a loop of word stores
// from start would, a ragged end rounded up to a whole word, and returns
// the bytes cleared (none when end <= start). It clears by page through
// physmem.Memory.Zero, so memory never written stays unallocated.
func ZeroWords(mem *physmem.Memory, start, end uint32) (uint32, error) {
	if end <= start {
		return 0, nil
	}
	n := (end - start + 3) &^ 3
	return n, mem.Zero(start, n)
}
