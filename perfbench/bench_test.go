package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/faultinject"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		ok     bool
		beyond int
	}{
		{n: 1000, want: 99, ok: true, beyond: 10},
		{n: 5000, want: 99, ok: true, beyond: 50},
		{n: 999, want: 90, ok: true, beyond: 99},
		{n: 100, want: 90, ok: true, beyond: 10},
		{n: 99, want: 50, ok: true, beyond: 49},
		{n: 20, want: 50, ok: true, beyond: 10},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok && tc.n-rank(tc.n, p) != tc.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", tc.n, p, tc.n-rank(tc.n, p), tc.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestFailuresCountErroredAndQuarantined pins what failed_frac counts:
// errored scenarios, isolation violations and quarantined units.
func TestFailuresCountErroredAndQuarantined(t *testing.T) {
	ok := faultinject.Result{}
	errored := faultinject.Result{RV: faultinject.PortResult{Err: "boot failed"}}
	violated := faultinject.Result{ARM: faultinject.PortResult{Violations: []string{"kernel RAM readable"}}}
	outcomes := []campaign.Outcome[faultinject.Result]{
		{Status: campaign.StatusOK, Result: ok},
		{Status: campaign.StatusOK, Result: errored},
		{Status: campaign.StatusOK, Result: violated},
		{Status: campaign.StatusQuarantined, Attempts: []campaign.Attempt{{Failure: campaign.FailTimeout}}},
	}
	failed := outcomesFailed(outcomes)
	if failed != 3 {
		t.Fatalf("outcomesFailed = %d, want 3", failed)
	}
	if got := failedFrac(failed, len(outcomes)); got != 0.75 {
		t.Errorf("failedFrac = %v, want 0.75", got)
	}
	if failedFrac(0, 0) != 0 {
		t.Error("failedFrac of nothing attempted is not 0")
	}
	if scenarioFailed(ok) || !scenarioFailed(faultinject.Result{Sup: "quarantined (timeout after 2 attempts)"}) {
		t.Error("scenarioFailed misclassifies a clean or a quarantined result")
	}
}

// TestMetricNames checks every metric name against the allowed
// alphabet and BENCHMARK.json against the metrics the benchmark prints.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		defs []metricDef
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEndMetrics, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		want := make([]struct{ Name, Unit string }, len(c.defs))
		for i, d := range c.defs {
			want[i].Name, want[i].Unit = d.name, d.unit
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("BENCHMARK.json %s does not list the metrics the benchmark reports", c.list)
		}
	}
}

// TestLayerMetricsReportsEveryMetric checks a traced run reports every
// per-layer metric, counts from the first pass and medians otherwise.
func TestLayerMetricsReportsEveryMetric(t *testing.T) {
	passes := []pass{newPass(), newPass(), newPass()}
	for i := range passes {
		passes[i].counts["step.sim_cycles"] = 4_000_000
		passes[i].vals["step.s"] = []float64{0.1, 0.2, 0.3}[i]
		passes[i].traced, passes[i].untraced, passes[i].covered = 2, 1, 1.5
	}
	got := layerMetrics(passes, cpuStats{gc: 1, total: 10, idle: 6})
	if len(got) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(got), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
		}
	}
	for name, want := range map[string]float64{
		"step.sim_cycles":        4e6,
		"step.s":                 0.2,
		"step.sim_mcycles_per_s": 20,
		"trace.coverage":         0.75,
		"trace.overhead":         2,
		"runtime.gc_cpu_frac":    0.25,
	} {
		if v := got[name].Value; v < want*0.999 || v > want*1.001 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

func TestDiffCounts(t *testing.T) {
	a := map[string]uint64{"step.quanta": 10, "accessmap.builds": 3}
	if d := diffCounts("a", a, "b", map[string]uint64{"step.quanta": 10, "accessmap.builds": 3}); d != nil {
		t.Errorf("identical counts reported as changed: %v", d)
	}
	d := diffCounts("a", a, "b", map[string]uint64{"step.quanta": 11})
	if len(d) != 2 {
		t.Errorf("diffCounts = %v, want the two changed counts", d)
	}
}

// TestSeedPlumbing checks the seed alone picks the scenario lists: the
// same seed gives the same list, another seed or campaign another one.
func TestSeedPlumbing(t *testing.T) {
	list := func(seed int64, c int) []faultinject.Scenario {
		s := &scenarioStream{seed: seed}
		out := make([]faultinject.Scenario, campaignSize)
		for i := range out {
			out[i], _ = s.at(c*campaignSize + i)
		}
		return out
	}
	if !reflect.DeepEqual(list(7, 0), list(7, 0)) {
		t.Error("the same seed gave two scenario lists")
	}
	if reflect.DeepEqual(list(7, 0), list(8, 0)) {
		t.Error("seeds 7 and 8 gave the same scenario list")
	}
	if reflect.DeepEqual(list(7, 0), list(7, 1)) {
		t.Error("campaigns 0 and 1 of one seed gave the same scenario list")
	}
	if !reflect.DeepEqual(list(7, 0), faultinject.GenScenarios(campaignConfig(7, 0))) {
		t.Error("campaign 0 is not faultinject.GenScenarios at its campaign seed")
	}
}

// TestProbeRunsIdentitySet checks a memory probe runs the whole suite
// once and fails on nothing.
func TestProbeRunsIdentitySet(t *testing.T) {
	r, _, err := setupDifftest(env{name: "difftest"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.measure(time.Now(), r.identity())
	if err != nil || l.failed != 0 || len(l.samples) != wantSuite.Total {
		t.Fatalf("probe pass: %d units, %d failed, err %v; want %d units", len(l.samples), l.failed, err, wantSuite.Total)
	}
	if err := probe(setupDifftest, env{name: "difftest"}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLoopRunsPastDeadlineToMinUnits(t *testing.T) {
	l := closedLoop(time.Now(), 25, func(u int) bool { return u%5 != 0 })
	if len(l.samples) < 25 {
		t.Errorf("%d units, want at least 25", len(l.samples))
	}
	if want := (len(l.samples) + 4) / 5; l.failed != want {
		t.Errorf("%d failed, want %d", l.failed, want)
	}
}
