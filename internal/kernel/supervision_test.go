package kernel

import (
	"strings"
	"testing"

	"ticktock/internal/cycles"
	"ticktock/internal/kcore"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/rvkernel"
	"ticktock/internal/trace"
)

// The fault-supervision tests are table-driven over both ports: the
// policy, backoff and watchdog code is the shared core's, and each port
// must drive it to the same outcome.

// supervised is a booted kernel of either port, seen through the core.
type supervised interface {
	Run(maxQuanta int) (int, error)
	Records() []*kcore.Process
	Counters() kcore.Counters
	Meter() *cycles.Meter
}

// policy is a supervision setting both ports accept.
type policy struct {
	fault       FaultPolicy
	maxRestarts int
	backoff     uint64
	watchdog    int
	timeslice   uint32
	trace       *trace.Tracer
}

// supervisionPort boots one port under a policy with the named test
// apps loaded: crasher (prints "boot", then reads kernel RAM), runaway
// (spins without syscalls), hello (prints "hi" and exits) and chatty
// (prints 40 characters, one syscall each, and exits).
type supervisionPort struct {
	name string
	boot func(t *testing.T, pol policy, apps ...string) supervised
}

func supervisionPorts() []supervisionPort {
	ports := []supervisionPort{{"armv7m", bootARM}}
	for _, chip := range riscv.Chips {
		ports = append(ports, supervisionPort{"rv32-" + chip.Name, func(t *testing.T, pol policy, apps ...string) supervised {
			return bootRV(t, chip, pol, apps...)
		}})
	}
	return ports
}

// forEachPort runs f as one subtest per port.
func forEachPort(t *testing.T, f func(t *testing.T, port supervisionPort)) {
	for _, port := range supervisionPorts() {
		t.Run(port.name, func(t *testing.T) { f(t, port) })
	}
}

func bootARM(t *testing.T, pol policy, apps ...string) supervised {
	k := newTestKernel(t, Options{
		Flavour: FlavourTickTock, FaultPolicy: pol.fault, MaxRestarts: pol.maxRestarts,
		BackoffBase: pol.backoff, Watchdog: pol.watchdog, Timeslice: pol.timeslice, Observe: kcore.Observe{Trace: pol.trace},
	})
	byName := map[string]App{
		"crasher": crasher(),
		"runaway": runaway(),
		"hello":   helloApp("hello", "hi\r\n"),
		"chatty":  helloApp("chatty", strings.Repeat("x", 40)),
	}
	for _, name := range apps {
		load(t, k, byName[name])
	}
	return k
}

func bootRV(t *testing.T, chip riscv.ChipConfig, pol policy, apps ...string) supervised {
	k, err := rvkernel.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	k.FaultPolicy, k.MaxRestarts, k.BackoffBase, k.Watchdog = pol.fault, pol.maxRestarts, pol.backoff, pol.watchdog
	if pol.timeslice != 0 {
		k.Timeslice = uint64(pol.timeslice)
	}
	k.Attach(kcore.Observe{Trace: pol.trace})
	byName := map[string]rvkernel.App{
		"crasher": rvApp("crasher", func(a *rv32.Assembler) {
			rvPuts(a, "boot\n")
			a.Emit(rv32.Li{Rd: rv32.T0, Imm: rvkernel.KernelDataBase}).
				Emit(rv32.Lw{Rd: rv32.T1, Rs1: rv32.T0, Off: 0})
			rvExit(a)
		}),
		"runaway": rvApp("runaway", func(a *rv32.Assembler) {
			a.Label("spin")
			a.Emit(rv32.Addi{Rd: rv32.S2, Rs1: rv32.S2, Imm: 1})
			a.JTo("spin")
		}),
		"hello": rvApp("hello", func(a *rv32.Assembler) {
			rvPuts(a, "hi\r\n")
			rvExit(a)
		}),
		"chatty": rvApp("chatty", func(a *rv32.Assembler) {
			rvPuts(a, strings.Repeat("x", 40))
			rvExit(a)
		}),
	}
	for _, name := range apps {
		if _, err := k.LoadProcess(byName[name]); err != nil {
			t.Fatalf("LoadProcess(%s): %v", name, err)
		}
	}
	return k
}

func rvApp(name string, build func(a *rv32.Assembler)) rvkernel.App {
	return rvkernel.App{
		Name: name, MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *rv32.Program {
			a := rv32.NewAssembler(base)
			build(a)
			return a.MustAssemble()
		},
	}
}

// rvPuts emits one console putchar ecall per byte of s.
func rvPuts(a *rv32.Assembler, s string) {
	for _, ch := range s {
		a.Emit(rv32.Li{Rd: rv32.A0, Imm: DriverConsole}).
			Emit(rv32.Li{Rd: rv32.A1, Imm: 0}).
			Emit(rv32.Li{Rd: rv32.A2, Imm: uint32(ch)}).
			Emit(rv32.Li{Rd: rv32.A7, Imm: SVCCommand}).
			Emit(rv32.Ecall{})
	}
}

func rvExit(a *rv32.Assembler) {
	a.Emit(rv32.Li{Rd: rv32.A0, Imm: 0}).Emit(rv32.Li{Rd: rv32.A7, Imm: SVCExit}).Emit(rv32.Ecall{})
}

// runSupervised runs k until every process is dead (or a generous quanta
// bound) and returns the first process's record.
func runSupervised(t *testing.T, k supervised, quanta int) *kcore.Process {
	t.Helper()
	if _, err := k.Run(quanta); err != nil {
		t.Fatal(err)
	}
	return k.Records()[0]
}

func TestPolicyStopTerminates(t *testing.T) {
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		p := runSupervised(t, port.boot(t, policy{}, "crasher"), 10000)
		if p.State != StateFaulted || p.Restarts != 0 {
			t.Fatalf("state=%v restarts=%d", p.State, p.Restarts)
		}
	})
}

func TestPolicyRestartRestartsUpToMax(t *testing.T) {
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		p := runSupervised(t, port.boot(t, policy{fault: PolicyRestart, maxRestarts: 2}, "crasher"), 10000)
		if p.Restarts != 2 || p.State != StateFaulted {
			t.Fatalf("restarts=%d state=%v, want 2 and faulted", p.Restarts, p.State)
		}
		// The process booted fresh each time: three "boot" prints
		// (initial + two restarts) and three panics.
		out := p.Output()
		for what, want := range map[string]int{"boot": 3, "panic:": 3, "restarting crasher": 2} {
			if got := strings.Count(out, what); got != want {
				t.Fatalf("%d %q in output, want %d: %q", got, what, want, out)
			}
		}
	})
}

func TestPolicyRestartDefaultsToThree(t *testing.T) {
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		p := runSupervised(t, port.boot(t, policy{fault: PolicyRestart}, "crasher"), 10000)
		if p.Restarts != 3 {
			t.Fatalf("restarts=%d, want 3 (Tock default)", p.Restarts)
		}
	})
}

func TestPolicyRestartExhaustionRecordsGivingUp(t *testing.T) {
	// Regression: exhausting the restart budget must leave the process
	// StateFaulted with a FaultReason that records the restart count, not
	// silently reuse the last crash's reason.
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		k := port.boot(t, policy{fault: PolicyRestart, maxRestarts: 2}, "crasher")
		p := runSupervised(t, k, 10000)
		if p.State != StateFaulted {
			t.Fatalf("state=%v, want faulted", p.State)
		}
		if !strings.HasSuffix(p.FaultReason, "(gave up after 2 restarts)") {
			t.Fatalf("FaultReason=%q does not record the exhausted budget", p.FaultReason)
		}
		if got := k.Counters().Faults; got != 3 {
			t.Fatalf("Faults=%d, want 3 (initial + 2 restarts)", got)
		}
	})
}

func TestPolicyRestartBackoffSequence(t *testing.T) {
	// With BackoffBase set, each policy restart is delayed exponentially:
	// base<<0, base<<1, ... The KindBackoff trace events record the
	// sequence, and each restarted boot really waits out its delay: its
	// fault comes after the wake cycle.
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		const base = 512
		tr := trace.New(0)
		p := runSupervised(t, port.boot(t, policy{fault: PolicyRestart, maxRestarts: 3, backoff: base, trace: tr}, "crasher"), 10000)
		if p.Restarts != 3 || p.State != StateFaulted {
			t.Fatalf("restarts=%d state=%v", p.Restarts, p.State)
		}
		var wakes, faults []uint64
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case trace.KindBackoff:
				if want := uint64(base) << len(wakes); ev.B != want {
					t.Fatalf("backoff %d delayed %d cycles, want %d", len(wakes)+1, ev.B, want)
				}
				wakes = append(wakes, ev.Cycle+ev.B)
			case trace.KindFault:
				faults = append(faults, ev.Cycle)
			}
		}
		if len(wakes) != 3 || len(faults) != 4 {
			t.Fatalf("%d backoff and %d fault events, want 3 and 4", len(wakes), len(faults))
		}
		for i, wake := range wakes {
			if faults[i+1] < wake {
				t.Fatalf("restart %d faulted at cycle %d, before its backoff wake %d", i+1, faults[i+1], wake)
			}
		}
	})
}

func TestPolicyQuarantineAfterExhaustion(t *testing.T) {
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		k := port.boot(t, policy{fault: PolicyQuarantine, maxRestarts: 2}, "crasher")
		p := runSupervised(t, k, 10000)
		if p.State != StateQuarantined {
			t.Fatalf("state=%v, want quarantined", p.State)
		}
		if !strings.HasSuffix(p.FaultReason, "(quarantined after 2 restarts)") {
			t.Fatalf("FaultReason=%q", p.FaultReason)
		}
		if got := k.Counters().Quarantines; got != 1 {
			t.Fatalf("Quarantines=%d, want 1", got)
		}
		if !strings.Contains(p.Output(), "quarantining crasher") {
			t.Fatalf("output=%q lacks quarantine notice", p.Output())
		}
		if p.Alive() || p.Runnable(k.Meter().Cycles()+1<<20) {
			t.Fatal("quarantined process still schedulable")
		}
		// Quarantine is terminal: further runs change nothing.
		counters, out := k.Counters(), p.Output()
		if n, err := k.Run(100); err != nil || n != 0 {
			t.Fatalf("Run after quarantine: %d quanta, err=%v", n, err)
		}
		if p.State != StateQuarantined || p.Restarts != 2 || k.Counters() != counters || p.Output() != out {
			t.Fatalf("quarantine did not hold: state=%v restarts=%d counters=%+v", p.State, p.Restarts, k.Counters())
		}
	})
}

func TestWatchdogFaultsRunaway(t *testing.T) {
	// A process that spins without syscalls for Watchdog consecutive
	// timeslices is declared runaway; a well-behaved neighbour is not.
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		k := port.boot(t, policy{watchdog: 3}, "runaway", "hello")
		if _, err := k.Run(50); err != nil {
			t.Fatal(err)
		}
		bad, good := k.Records()[0], k.Records()[1]
		if bad.State != StateFaulted || !strings.HasPrefix(bad.FaultReason, "watchdog: 3 consecutive timeslices") {
			t.Fatalf("runaway state=%v reason=%q, want faulted by the watchdog", bad.State, bad.FaultReason)
		}
		if got := k.Counters().WatchdogFires; got != 1 {
			t.Fatalf("WatchdogFires=%d", got)
		}
		if good.State != StateExited || good.Output() != "hi\r\n" {
			t.Fatalf("good neighbour state=%v output=%q", good.State, good.Output())
		}
	})
}

func TestWatchdogSparesSyscallingProcess(t *testing.T) {
	// Spinning interrupted by periodic syscalls must never trip the
	// watchdog: the syscall resets the staleness counter.
	forEachPort(t, func(t *testing.T, port supervisionPort) {
		k := port.boot(t, policy{watchdog: 3, timeslice: 2000}, "chatty")
		p := runSupervised(t, k, 100)
		if got := k.Counters().WatchdogFires; got != 0 {
			t.Fatalf("WatchdogFires=%d for a syscalling process", got)
		}
		if p.State != StateExited {
			t.Fatalf("state=%v", p.State)
		}
	})
}
