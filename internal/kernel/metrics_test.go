package kernel

import (
	"testing"

	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
)

// runMetered boots a flavour with a registry attached, runs hello, and
// returns the kernel.
func runMetered(t *testing.T, fl Flavour, reg *metrics.Registry) *Kernel {
	t.Helper()
	k := newTestKernel(t, Options{Flavour: fl, Observe: kcore.Observe{Metrics: reg}})
	p := load(t, k, helloApp("hello", "hi"))
	run(t, k)
	if p.State != StateExited {
		t.Fatalf("state=%v reason=%q", p.State, p.FaultReason)
	}
	return k
}

func TestKernelMetricsWiring(t *testing.T) {
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		t.Run(fl.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			k := runMetered(t, fl, reg)
			flavour := metrics.L("flavour", fl.String())

			if got := reg.Counter("ticktock_context_switches_total", flavour).Value(); got != k.Switches {
				t.Fatalf("switch counter %d != k.Switches %d", got, k.Switches)
			}
			// hello issues 2 commands ('h', 'i') and one exit.
			if got := reg.Counter("ticktock_syscalls_total", flavour, metrics.L("class", "command")).Value(); got != 2 {
				t.Fatalf("command counter = %d", got)
			}
			if got := reg.Counter("ticktock_syscalls_total", flavour, metrics.L("class", "exit")).Value(); got != 1 {
				t.Fatalf("exit counter = %d", got)
			}
			h := reg.Histogram("ticktock_syscall_cycles", flavour, metrics.L("class", "command"))
			if h.Count() != 2 || h.Sum() == 0 {
				t.Fatalf("command cycle histogram count=%d sum=%d", h.Count(), h.Sum())
			}
			// The MPU reconfigure histogram observes once per switch-in.
			if mh := reg.Histogram("ticktock_mpu_reconfigure_cycles", flavour); mh.Count() == 0 {
				t.Fatal("MPU reconfigure histogram empty")
			}
			// Machine-level counters flow through AttachMetrics.
			if reg.Counter("armv7m_instructions_total", flavour).Value() == 0 {
				t.Fatal("instruction counter empty")
			}
			if reg.Counter("armv7m_exceptions_total", flavour, metrics.L("exc", "svcall")).Value() != 3 {
				t.Fatal("svcall exception count != 3 syscalls")
			}
			if reg.Counter("armv7m_mpu_region_writes_total", flavour).Value() == 0 {
				t.Fatal("MPU region write counter empty")
			}

			// The per-method histogram mirrors the Stats collector.
			for _, m := range k.Stats.Methods() {
				mh := reg.Histogram("ticktock_method_cycles", flavour, metrics.L("method", m))
				if st := k.Stats.Get(m); mh.Count() != st.Count || mh.Sum() != st.Cycles {
					t.Fatalf("method %s: histogram (%d,%d) != stats (%d,%d)",
						m, mh.Count(), mh.Sum(), st.Count, st.Cycles)
				}
			}

			// PublishMetrics lands the Figure 11 totals as counters.
			k.PublishMetrics()
			for _, m := range k.Stats.Methods() {
				got := reg.Counter("ticktock_method_cycles_total", flavour, metrics.L("method", m)).Value()
				if want := k.Stats.Get(m).Cycles; got != want {
					t.Fatalf("published %s cycles %d != %d", m, got, want)
				}
			}
		})
	}
}

// TestProfileSumsToMeter is the folded-stack invariant at kernel scope:
// every simulated cycle lands in exactly one stack, so the profile total
// equals the cycle meter.
func TestProfileSumsToMeter(t *testing.T) {
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		t.Run(fl.String(), func(t *testing.T) {
			k := runMetered(t, fl, metrics.NewRegistry())
			prof := k.Profile()
			if prof == nil {
				t.Fatal("no profile despite attached metrics")
			}
			if got, want := prof.Total(), k.Meter().Cycles(); got != want {
				t.Fatalf("profile total %d != meter %d\n%s", got, want, prof.FoldedDump())
			}
			// The profile must attribute real work, not dump everything
			// into the residue bucket.
			samples := prof.Samples()
			if samples[fl.String()+";hello;user"] == 0 {
				t.Fatalf("no user-mode attribution:\n%s", prof.FoldedDump())
			}
			if samples[fl.String()+";kernel;create"] == 0 {
				t.Fatalf("no create attribution:\n%s", prof.FoldedDump())
			}
			if res := samples[fl.String()+";kernel;unattributed"]; res*5 > prof.Total() {
				t.Fatalf("residue %d is over 20%% of total %d:\n%s", res, prof.Total(), prof.FoldedDump())
			}
		})
	}
}

// TestMetricsOff ensures a kernel without a registry still runs and
// returns a nil profile.
func TestMetricsOff(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	load(t, k, helloApp("hello", "x"))
	run(t, k)
	if k.Profile() != nil {
		t.Fatal("profile without metrics")
	}
	k.PublishMetrics() // must be a no-op, not a panic
}
