// Supervision obligations: the fault-handling half of the isolation
// story. The paper's contracts say a process can never corrupt the
// kernel; these specs say what the kernel does *after* stopping it —
// restart budgets are honoured exactly, backoff delays grow
// geometrically, quarantine is terminal, and the watchdog fires on
// runaway processes without false-positives on well-behaved ones.
// The campaign obligation re-checks the isolation contracts while a
// seeded fault injector is actively corrupting MPU/PMP state, timers,
// syscalls and the memory bus on both ports.
package specs

import (
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/faultinject"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/trace"
	"ticktock/internal/verify"
)

// CompSupervision is the registry component for fault-supervision
// obligations.
const CompSupervision = "Supervision"

// crasherApp dereferences a kernel address and faults immediately.
func crasherApp() kernel.App {
	return kernel.App{
		Name: "crasher", MinRAM: 6144, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Emit(armv7m.MovImm{Rd: armv7m.R6, Imm: kernel.KernelDataBase}).
				Emit(armv7m.Ldr{Rt: armv7m.R7, Rn: armv7m.R6})
			apps.Exit(a, 0)
			return a.MustAssemble()
		},
	}
}

// runawayApp spins forever without syscalls — watchdog bait.
func runawayApp() kernel.App {
	return kernel.App{
		Name: "runaway", MinRAM: 6144, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Label("spin")
			a.Emit(armv7m.Add{Rd: armv7m.R4, Rn: armv7m.R4, Rm: armv7m.R4})
			a.BTo(armv7m.AL, "spin")
			return a.MustAssemble()
		},
	}
}

// BuildSupervision assembles the fault-supervision registry: restart
// budget, backoff growth, quarantine terminality, watchdog soundness,
// and the under-fault isolation campaign.
func BuildSupervision(sc Scale) *verify.Registry {
	r := verify.NewRegistry()

	r.Add(&verify.Spec{
		Component:  CompSupervision,
		Name:       "supervision/restart_budget_exact",
		SpecLines:  4,
		DomainSize: 4,
		Body: func(t *verify.T) {
			for budget := 1; budget <= 4 && !t.Stopped(); budget++ {
				t.Enumerate(1)
				k, err := kernel.New(kernel.Options{
					Flavour: kernel.FlavourTickTock, FaultPolicy: kernel.PolicyRestart, MaxRestarts: budget,
				})
				if err != nil {
					t.Failf("boot", "%v", err)
					return
				}
				p, err := k.LoadProcess(crasherApp())
				if err != nil {
					t.Failf("load", "%v", err)
					return
				}
				if _, err := k.Run(10000); err != nil {
					t.Failf("run", "%v", err)
					return
				}
				if p.Restarts != budget || p.State != kernel.StateFaulted {
					t.Failf("budget", "MaxRestarts=%d restarts=%d state=%v", budget, p.Restarts, p.State)
				}
				if want := fmt.Sprintf("gave up after %d restarts", budget); !strings.Contains(p.FaultReason, want) {
					t.Failf("reason", "FaultReason=%q lacks %q", p.FaultReason, want)
				}
				if k.Faults != uint64(budget)+1 {
					t.Failf("faults", "Faults=%d want %d", k.Faults, budget+1)
				}
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompSupervision,
		Name:       "supervision/backoff_geometric",
		SpecLines:  3,
		DomainSize: 3,
		Body: func(t *verify.T) {
			for _, base := range []uint64{128, 512, 4096} {
				if t.Stopped() {
					return
				}
				t.Enumerate(1)
				tr := trace.New(0)
				k, err := kernel.New(kernel.Options{
					Flavour: kernel.FlavourTickTock, FaultPolicy: kernel.PolicyRestart,
					MaxRestarts: 3, BackoffBase: base, Observe: kcore.Observe{Trace: tr},
				})
				if err != nil {
					t.Failf("boot", "%v", err)
					return
				}
				if _, err := k.LoadProcess(crasherApp()); err != nil {
					t.Failf("load", "%v", err)
					return
				}
				if _, err := k.Run(10000); err != nil {
					t.Failf("run", "%v", err)
					return
				}
				var delays []uint64
				for _, ev := range tr.Events() {
					if ev.Kind == trace.KindBackoff {
						delays = append(delays, ev.B)
					}
				}
				if len(delays) != 3 {
					t.Failf("count", "base=%d: %d backoff events, want 3", base, len(delays))
					return
				}
				for i, d := range delays {
					if want := base << uint(i); d != want {
						t.Failf("growth", "base=%d attempt=%d delay=%d want %d", base, i+1, d, want)
					}
				}
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompSupervision,
		Name:       "supervision/quarantine_terminal",
		SpecLines:  3,
		DomainSize: 1,
		Body: func(t *verify.T) {
			t.Enumerate(1)
			k, err := kernel.New(kernel.Options{
				Flavour: kernel.FlavourTickTock, FaultPolicy: kernel.PolicyQuarantine, MaxRestarts: 2,
			})
			if err != nil {
				t.Failf("boot", "%v", err)
				return
			}
			p, err := k.LoadProcess(crasherApp())
			if err != nil {
				t.Failf("load", "%v", err)
				return
			}
			if _, err := k.Run(10000); err != nil {
				t.Failf("run", "%v", err)
				return
			}
			if p.State != kernel.StateQuarantined || k.Quarantines != 1 {
				t.Failf("state", "state=%v quarantines=%d", p.State, k.Quarantines)
				return
			}
			faults := k.Faults
			// Terminal: further scheduling never revives or re-faults it.
			if _, err := k.Run(100); err != nil {
				t.Failf("rerun", "%v", err)
				return
			}
			if p.State != kernel.StateQuarantined || k.Faults != faults {
				t.Failf("terminal", "state=%v faults %d→%d", p.State, faults, k.Faults)
			}
			if p.Runnable(k.Meter().Cycles() + 1<<30) {
				t.Failf("schedulable", "quarantined process still runnable")
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompSupervision,
		Name:       "supervision/watchdog_sound",
		SpecLines:  4,
		DomainSize: 3,
		Body: func(t *verify.T) {
			// One App for every state, so its image is assembled once.
			neighbour := apps.All()[0].Apps[0]
			for _, wd := range []int{2, 3, 5} {
				if t.Stopped() {
					return
				}
				t.Enumerate(1)
				k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock, Watchdog: wd})
				if err != nil {
					t.Failf("boot", "%v", err)
					return
				}
				bad, err := k.LoadProcess(runawayApp())
				if err != nil {
					t.Failf("load", "%v", err)
					return
				}
				good, err := k.LoadProcess(neighbour)
				if err != nil {
					t.Failf("load", "%v", err)
					return
				}
				if _, err := k.Run(100); err != nil {
					t.Failf("run", "%v", err)
					return
				}
				if bad.State != kernel.StateFaulted || !strings.Contains(bad.FaultReason, "watchdog") {
					t.Failf("fire", "wd=%d state=%v reason=%q", wd, bad.State, bad.FaultReason)
				}
				if good.State != kernel.StateExited {
					t.Failf("false-positive", "wd=%d neighbour state=%v", wd, good.State)
				}
			}
		},
	})

	// Isolation-under-fault: a bounded seeded campaign across both ports
	// must uphold every isolation contract and classify every injection.
	n := 24 * sc.Seeds
	r.Add(&verify.Spec{
		Component:  CompSupervision,
		Name:       "supervision/campaign_isolation_under_fault",
		SpecLines:  6,
		DomainSize: uint64(n),
		Body: func(t *verify.T) {
			t.Enumerate(uint64(n))
			rep := faultinject.Run(faultinject.Config{Seed: 1, N: n})
			if rep.Sup != nil {
				// A scenario that crashed was quarantined, not run.
				t.Failf("supervision", "%d scenario(s) quarantined by the campaign supervisor", len(rep.Sup.Quarantined))
			}
			for _, v := range rep.Violations {
				t.Failf("violation", "%s", v)
			}
			if rep.ARM.Errors != 0 || rep.RV.Errors != 0 {
				t.Failf("errors", "arm=%d rv=%d scenario errors", rep.ARM.Errors, rep.RV.Errors)
			}
			for _, tl := range []faultinject.Tally{rep.ARM, rep.RV} {
				tot := tl.Total()
				if tot.Injected != tot.Detected+tot.Masked+tot.Benign {
					t.Failf("classification", "%s: injected %d != %d+%d+%d",
						tl.Port, tot.Injected, tot.Detected, tot.Masked, tot.Benign)
				}
			}
		},
	})

	return r
}
