package kernel

import (
	"testing"

	"ticktock/internal/armv7m"
)

// alarmPoller reads the alarm's tick count in a loop: every quantum is one
// syscall round trip through the cheapest service the kernel has.
func alarmPoller() App {
	return App{
		Name: "poll", MinRAM: 6144, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Label("loop")
			emitSyscall4(a, SVCCommand, DriverAlarm, 0, 0, 0)
			a.BTo(armv7m.AL, "loop")
			return a.MustAssemble()
		},
	}
}

// TestTrapRoundTripAllocatesNothing pins the trap path's allocation
// count: one RunOnce is a context switch in (MPU reprogramming,
// exception return), the process running to its SVC, exception entry
// with the frame stacked, and the kernel serving the call. The oracle
// core allocates nothing; the fast core allocates only the access-map
// rebuild that follows every MPU reprogramming.
func TestTrapRoundTripAllocatesNothing(t *testing.T) {
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		for _, fast := range []bool{false, true} {
			name := fl.String() + "/oracle"
			if fast {
				name = fl.String() + "/fast"
			}
			t.Run(name, func(t *testing.T) {
				k := newTestKernel(t, Options{Flavour: fl, FastCore: fast})
				p := load(t, k, alarmPoller())
				roundTrip := func() {
					if ran, err := k.RunOnce(); err != nil || !ran {
						t.Fatalf("RunOnce: ran=%v err=%v", ran, err)
					}
				}
				// Warm up: the first quanta build the access map, decode
				// the blocks and size the kernel's buffers.
				for i := 0; i < 16; i++ {
					roundTrip()
				}
				var want float64
				if fast {
					// One rebuild of the configuration p runs under; the
					// kernel disables the MPU again on every trap.
					if err := p.MM.ConfigureMPU(); err != nil {
						t.Fatal(err)
					}
					hw := k.Board.Machine.MPU
					want = testing.AllocsPerRun(20, func() { hw.Invalidate(); hw.AccessMap() })
					p.MM.DisableMPU()
				}
				if got := testing.AllocsPerRun(200, roundTrip); got != want {
					t.Errorf("%v allocations per trap round trip, want %v", got, want)
				}
				if p.State != StateReady {
					t.Fatalf("poller state=%v reason=%q", p.State, p.FaultReason)
				}
			})
		}
	}
}
