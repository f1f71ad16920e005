package faultinject

import (
	"strings"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/metrics"
	"ticktock/internal/rv32"
)

// TestCampaignDeterministic is the seed-reproduction gate: the same seed
// must yield a byte-identical report regardless of worker count or
// scheduling, because every scenario derives its randomness from the
// master seed and its index alone.
func TestCampaignDeterministic(t *testing.T) {
	a := Run(Config{Seed: 42, N: 60, Workers: 1})
	b := Run(Config{Seed: 42, N: 60, Workers: 7})
	if at, bt := a.Text(), b.Text(); at != bt {
		t.Fatalf("same seed, different reports:\n--- workers=1 ---\n%s\n--- workers=7 ---\n%s", at, bt)
	}
	for i := range a.Results {
		if a.Results[i].ARM.Outcome != b.Results[i].ARM.Outcome ||
			a.Results[i].RV.Outcome != b.Results[i].RV.Outcome ||
			a.Results[i].ARM.Detail != b.Results[i].ARM.Detail ||
			a.Results[i].RV.Detail != b.Results[i].RV.Detail {
			t.Fatalf("scenario %d diverges across worker counts:\n%+v\n%+v",
				i, a.Results[i], b.Results[i])
		}
	}
	c := Run(Config{Seed: 43, N: 60, Workers: 7})
	if a.Text() == c.Text() {
		t.Fatal("different seeds produced identical campaigns; scenarios are not seed-derived")
	}
}

// TestCampaignUpholdsContracts runs a bounded campaign and enforces the
// acceptance conditions: no isolation-contract violation, no scenario
// infrastructure error, and every scenario fully classified on both
// ports (injected faults are detected, masked or benign — never lost).
// ScenarioAt derives one scenario exactly as GenScenarios derives the
// whole list, and refuses indexes outside the campaign.
func TestScenarioAtMatchesGenScenarios(t *testing.T) {
	for _, cfg := range []Config{{Seed: 42, N: 60}, {Seed: 1 << 16}} {
		all := GenScenarios(cfg)
		for i, want := range all {
			got, err := ScenarioAt(cfg, i)
			if err != nil || got != want {
				t.Fatalf("seed %d: ScenarioAt(%d) = %+v, %v; want %+v", cfg.Seed, i, got, err, want)
			}
		}
		for _, i := range []int{-1, len(all)} {
			if _, err := ScenarioAt(cfg, i); err == nil {
				t.Fatalf("seed %d: ScenarioAt(%d) of %d scenarios succeeded", cfg.Seed, i, len(all))
			}
		}
	}
}

func TestCampaignUpholdsContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	rep := Run(Config{Seed: 7, N: 120})
	if len(rep.Violations) != 0 {
		t.Fatalf("isolation violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	for _, tl := range []Tally{rep.ARM, rep.RV} {
		if tl.Errors != 0 {
			t.Fatalf("%s port: %d scenario errors", tl.Port, tl.Errors)
		}
		var scenarios uint64
		for k := 0; k < numKinds; k++ {
			c := tl.PerKind[k]
			if c.Injected != c.Detected+c.Masked+c.Benign {
				t.Fatalf("%s/%s: injected %d != detected %d + masked %d + benign %d",
					tl.Port, Kind(k), c.Injected, c.Detected, c.Masked, c.Benign)
			}
			scenarios += c.Injected + c.Skipped
		}
		if scenarios != uint64(len(rep.Results)) {
			t.Fatalf("%s port classified %d scenarios, campaign ran %d",
				tl.Port, scenarios, len(rep.Results))
		}
		if tot := tl.Total(); tot.Injected == 0 {
			t.Fatalf("%s port injected nothing; hooks are dead", tl.Port)
		}
	}
	// The campaign must exercise every injector kind on each port.
	for _, tl := range []Tally{rep.ARM, rep.RV} {
		for k := 0; k < numKinds; k++ {
			if c := tl.PerKind[k]; c.Injected+c.Skipped == 0 {
				t.Errorf("%s/%s: kind never generated", tl.Port, Kind(k))
			}
		}
	}
}

// TestFaultMetricsThreeWayAccounting mirrors the difftest metrics test:
// the report's own tallies, the live registry counters, and the parsed
// Prometheus exposition must agree series by series.
func TestFaultMetricsThreeWayAccounting(t *testing.T) {
	rep := Run(Config{Seed: 3, N: 70})
	reg := metrics.NewRegistry()
	rep.Publish(reg)

	var b strings.Builder
	if err := reg.ExportPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("export does not re-parse: %v", err)
	}

	series := func(name, port, kind string) (live, prom uint64) {
		labels := []metrics.Label{metrics.L("port", port)}
		id := name + `{kind="` + kind + `",port="` + port + `"}`
		if kind == "" {
			id = name + `{port="` + port + `"}`
		} else {
			labels = append(labels, metrics.L("kind", kind))
		}
		return reg.Counter(name, labels...).Value(), uint64(parsed[id])
	}

	for _, tl := range []Tally{rep.ARM, rep.RV} {
		for k := 0; k < numKinds; k++ {
			c := tl.PerKind[k]
			for _, w := range []struct {
				name string
				want uint64
			}{
				{"fault_injected_total", c.Injected},
				{"fault_detected_total", c.Detected},
				{"fault_masked_total", c.Masked},
				{"fault_benign_total", c.Benign},
				{"fault_skipped_total", c.Skipped},
			} {
				live, prom := series(w.name, tl.Port, Kind(k).String())
				if live != w.want {
					t.Errorf("%s{%s,%s}: registry %d, report %d", w.name, tl.Port, Kind(k), live, w.want)
				}
				if prom != w.want {
					t.Errorf("%s{%s,%s}: prometheus %d, report %d", w.name, tl.Port, Kind(k), prom, w.want)
				}
			}
		}
		live, prom := series("fault_quarantined_total", tl.Port, "")
		if live != tl.Quarantined || prom != tl.Quarantined {
			t.Errorf("fault_quarantined_total{%s}: registry %d, prometheus %d, report %d",
				tl.Port, live, prom, tl.Quarantined)
		}
	}

	// The exposition-level sum across all fault_injected series equals
	// both ports' totals — nothing double-booked, nothing lost.
	var promInjected uint64
	for id, v := range parsed {
		if strings.HasPrefix(id, "fault_injected_total{") {
			promInjected += uint64(v)
		}
	}
	if want := rep.ARM.Total().Injected + rep.RV.Total().Injected; promInjected != want {
		t.Errorf("prometheus sums %d injected faults, report has %d", promInjected, want)
	}
}

// TestRowsBridgeDivergence checks the difftest bridge: every scenario
// becomes a structured row, cross-port disagreement is flagged on the
// row (never an abort), and rows for error-bearing scenarios carry Err.
func TestRowsBridgeDivergence(t *testing.T) {
	rep := Run(Config{Seed: 11, N: 60})
	rows := rep.Rows()
	if len(rows) != len(rep.Results) {
		t.Fatalf("%d rows for %d scenarios", len(rows), len(rep.Results))
	}
	divergent := 0
	for i, row := range rows {
		if row.Name != rep.Results[i].Scenario.Label() {
			t.Fatalf("row %d name %q != scenario label %q", i, row.Name, rep.Results[i].Scenario.Label())
		}
		if row.Equal != rep.Results[i].Agree() {
			t.Fatalf("row %d Equal=%v, Agree=%v", i, row.Equal, rep.Results[i].Agree())
		}
		if !row.Equal {
			divergent++
		}
		hasErr := rep.Results[i].ARM.Err != "" || rep.Results[i].RV.Err != ""
		if (row.Err != nil) != hasErr {
			t.Fatalf("row %d Err=%v but port errors %q/%q",
				i, row.Err, rep.Results[i].ARM.Err, rep.Results[i].RV.Err)
		}
	}
	if divergent != rep.Divergent {
		t.Fatalf("rows count %d divergent, report says %d", divergent, rep.Divergent)
	}
}

// TestJitterAccumulatesWhileDisarmed pins the two-glitch regression: two
// jitter faults striking while the timer is disarmed (the kernel disarms
// across every trap) must both perturb the next quantum. The old code
// overwrote the pending delta, silently dropping the first glitch.
func TestJitterAccumulatesWhileDisarmed(t *testing.T) {
	tick := &armv7m.SysTick{}
	tick.Arm(1000)
	tick.Disarm()
	tick.Jitter(700)
	tick.Jitter(-200)
	tick.Arm(1000)
	if got := tick.Current(); got != 1500 {
		t.Fatalf("SysTick after two disarmed glitches: Current() = %d, want 1500 (700-200 applied)", got)
	}

	clint := &rv32.CLINT{}
	clint.Arm(1000)
	clint.Disarm()
	clint.Jitter(700)
	clint.Jitter(-200)
	clint.Arm(1000)
	// CLINT has no counter getter: the expiry point observes the applied
	// delta. 1499 cycles must not fire; the 1500th must.
	clint.Advance(1499)
	if clint.TakePending() {
		t.Fatal("CLINT fired before the accumulated jitter elapsed")
	}
	clint.Advance(1)
	if !clint.TakePending() {
		t.Fatal("CLINT did not fire at the jitter-adjusted expiry")
	}
}
