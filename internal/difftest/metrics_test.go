package difftest

import (
	"fmt"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

// TestMetricsTracerAndKernelCountersAgree is the three-way accounting
// cross-check: for every release case on both flavours, the Prometheus
// export's syscall counters, the tracer's span counts, and the kernel's
// own Switches/Stats totals must describe the same run.
func TestMetricsTracerAndKernelCountersAgree(t *testing.T) {
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		for _, tc := range apps.All() {
			reg := metrics.NewRegistry()
			tr := trace.New(1 << 17)
			k, err := RunFlavour(tc, fl, Config{}, kcore.Observe{Trace: tr, Metrics: reg})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.Name, fl, err)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("%s on %s: tracer dropped events", tc.Name, fl)
			}

			// Everything below reads the registry the way an external
			// scraper would: through the text exposition and back.
			var b strings.Builder
			if err := reg.ExportPrometheus(&b); err != nil {
				t.Fatal(err)
			}
			parsed, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("%s on %s: export does not re-parse: %v", tc.Name, fl, err)
			}

			var promSyscalls uint64
			for id, v := range parsed {
				if strings.HasPrefix(id, "ticktock_syscalls_total{") {
					promSyscalls += uint64(v)
				}
			}
			if spans := tr.Count(trace.KindSyscallEnter); promSyscalls != spans {
				t.Errorf("%s on %s: prometheus counts %d syscalls, tracer has %d spans",
					tc.Name, fl, promSyscalls, spans)
			}

			swID := fmt.Sprintf(`ticktock_context_switches_total{flavour=%q}`, fl.String())
			if got := uint64(parsed[swID]); got != k.Switches {
				t.Errorf("%s on %s: prometheus %d switches, kernel %d", tc.Name, fl, got, k.Switches)
			}
			if got := tr.Count(trace.KindContextSwitch); got != k.Switches {
				t.Errorf("%s on %s: tracer %d switches, kernel %d", tc.Name, fl, got, k.Switches)
			}

			// The published Figure 11 totals agree with the live Stats.
			for _, m := range k.Stats.Methods() {
				id := fmt.Sprintf(`ticktock_method_calls_total{flavour=%q,method=%q}`, fl.String(), m)
				if got, want := uint64(parsed[id]), k.Stats.Get(m).Count; got != want {
					t.Errorf("%s on %s: prometheus %s=%d, stats %d", tc.Name, fl, id, got, want)
				}
			}
		}
	}
}

// TestCampaignProfileInvariant enforces the folded-stack invariant on
// every release case and both flavours: the profile's stacks sum to
// exactly the run's total simulated cycles.
func TestCampaignProfileInvariant(t *testing.T) {
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		for _, tc := range apps.All() {
			k, err := RunFlavour(tc, fl, Config{}, kcore.Observe{Metrics: metrics.NewRegistry()})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.Name, fl, err)
			}
			prof := k.Profile()
			if got, want := prof.Total(), k.Meter().Cycles(); got != want {
				t.Errorf("%s on %s: profile total %d != meter %d\n%s",
					tc.Name, fl, got, want, prof.FoldedDump())
			}
		}
	}
}

// TestMeteredRunCyclesMatchUnmetered is the metrics twin of the tracer's
// zero-overhead guarantee: attaching a registry must not change the
// meter, the switch count or the console output of any case.
func TestMeteredRunCyclesMatchUnmetered(t *testing.T) {
	for _, tc := range apps.All() {
		plainK, plainOut, _, err := runOn(tc, kernel.FlavourTickTock, Config{}, kcore.Observe{})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		meteredK, err := RunFlavour(tc, kernel.FlavourTickTock, Config{}, kcore.Observe{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if reg.Snapshot().Counters == nil {
			t.Fatalf("%s: metered run recorded nothing", tc.Name)
		}
		if got, want := meteredK.Meter().Cycles(), plainK.Meter().Cycles(); got != want {
			t.Errorf("%s: metered run used %d cycles, unmetered %d — metrics must be free", tc.Name, got, want)
		}
		if meteredK.Switches != plainK.Switches {
			t.Errorf("%s: metered switches=%d, unmetered %d", tc.Name, meteredK.Switches, plainK.Switches)
		}
		var meteredOut strings.Builder
		for _, p := range meteredK.Procs {
			fmt.Fprintf(&meteredOut, "[%s] %s", p.Name, meteredK.Output(p))
		}
		if meteredOut.String() != plainOut {
			t.Errorf("%s: metered output differs from unmetered", tc.Name)
		}
	}
}

// TestCampaignMergeAndExport runs the whole campaign with metrics on
// four workers, merges the per-case snapshots, and checks the merged
// registry and profile are consistent with the per-row data.
func TestCampaignMergeAndExport(t *testing.T) {
	rows := RunAllConfig(Config{Metrics: true, Workers: 4})
	var wantSwitches, wantCycles uint64
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.TickTockMetrics == nil || r.TockProfile == nil {
			t.Fatalf("%s: missing metric snapshots", r.Name)
		}
		wantSwitches += r.TickTockMetrics.Counter("ticktock_context_switches_total",
			metrics.L("flavour", "ticktock")).Value()
		wantCycles += r.TickTockProfile.Total() + r.TockProfile.Total()
	}

	merged := MergeMetrics(rows)
	if got := merged.Counter("ticktock_context_switches_total",
		metrics.L("flavour", "ticktock")).Value(); got != wantSwitches {
		t.Errorf("merged switches %d, per-row sum %d", got, wantSwitches)
	}

	prof := MergeProfiles(rows)
	if got := prof.Total(); got != wantCycles {
		t.Errorf("merged profile total %d, per-row sum %d", got, wantCycles)
	}

	// The campaign-wide registry still round-trips through the text
	// exposition format.
	var b strings.Builder
	if err := merged.ExportPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("merged export does not re-parse: %v", err)
	}
	if got := uint64(parsed[`ticktock_context_switches_total{flavour="ticktock"}`]); got != wantSwitches {
		t.Errorf("parsed merged switches %d, want %d", got, wantSwitches)
	}
}
