package rvkernel

import (
	"testing"

	"ticktock/internal/kcore"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
)

// TestTrapRoundTripAllocatesNothing pins the trap path's allocation
// count: one RunOnce is a context switch in (PMP reprogramming, the drop
// to user mode), the process running to its ecall, the trap, and the
// kernel serving the call. The oracle core allocates nothing; the fast
// core allocates only the access-map rebuild that follows every PMP
// reprogramming.
func TestTrapRoundTripAllocatesNothing(t *testing.T) {
	poller := App{
		Name: "poll", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *rv32.Program {
			a := rv32.NewAssembler(base)
			a.Label("loop")
			syscall(a, kcore.SVCCommand, kcore.DriverAlarm, 0, 0, 0)
			a.JTo("loop")
			return a.MustAssemble()
		},
	}
	for _, fast := range []bool{false, true} {
		name := "oracle"
		if fast {
			name = "fast"
		}
		t.Run(name, func(t *testing.T) {
			k, err := New(riscv.ChipHiFive1)
			if err != nil {
				t.Fatal(err)
			}
			k.SetFastCore(fast)
			p, err := k.LoadProcess(poller)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip := func() {
				if ran, err := k.RunOnce(); err != nil || !ran {
					t.Fatalf("RunOnce: ran=%v err=%v", ran, err)
				}
			}
			// Warm up: the first quanta build the access map, decode the
			// blocks and size the kernel's buffers.
			for i := 0; i < 16; i++ {
				roundTrip()
			}
			var want float64
			if fast {
				pmp := k.Machine.PMP
				want = testing.AllocsPerRun(20, func() { pmp.Invalidate(); pmp.AccessMap() })
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
