package rvkernel

import (
	"testing"

	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
	"ticktock/internal/riscv"
)

// TestRVMetricsAndProfileInvariant runs hello on every chip with metrics
// attached and checks the counters and the folded-stack invariant: the
// profile total equals the machine cycle meter.
func TestRVMetricsAndProfileInvariant(t *testing.T) {
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			k.Attach(kcore.Observe{Metrics: reg})
			p, err := k.LoadProcess(ReleaseSubset()[0]) // c_hello
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(1000); err != nil {
				t.Fatal(err)
			}
			if p.State != StateExited {
				t.Fatalf("state=%v reason=%q", p.State, p.FaultReason)
			}

			fl := metrics.L("flavour", "rv32-"+chip.Name)
			if got := reg.Counter("ticktock_context_switches_total", fl).Value(); got != k.Switches() {
				t.Fatalf("switch counter %d != Switches() %d", got, k.Switches())
			}
			if reg.Counter("ticktock_syscalls_total", fl, metrics.L("class", "command")).Value() == 0 {
				t.Fatal("no command syscalls counted")
			}
			if reg.Counter("riscv_pmp_entry_writes_total", fl).Value() == 0 {
				t.Fatal("no PMP entry writes counted")
			}
			if reg.Histogram("ticktock_mpu_reconfigure_cycles", fl).Count() == 0 {
				t.Fatal("PMP reconfigure histogram empty")
			}

			prof := k.Profile()
			if got, want := prof.Total(), k.Machine.Meter.Cycles(); got != want {
				t.Fatalf("profile total %d != meter %d\n%s", got, want, prof.FoldedDump())
			}
			if prof.Samples()["rv32-"+chip.Name+";c_hello;user"] == 0 {
				t.Fatalf("no user attribution:\n%s", prof.FoldedDump())
			}
		})
	}
}

// TestRVMetricsOff ensures the unmetered kernel still runs and profiles
// to nil.
func TestRVMetricsOff(t *testing.T) {
	k, err := New(riscv.ChipHiFive1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadProcess(ReleaseSubset()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if k.Profile() != nil {
		t.Fatal("profile without metrics")
	}
}
