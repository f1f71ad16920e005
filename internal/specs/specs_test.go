package specs

import (
	"strings"
	"testing"
	"time"

	"ticktock/internal/verify"
)

func TestGranularObligationsHold(t *testing.T) {
	rep := BuildGranular(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
}

func TestMonolithicFixedObligationsHold(t *testing.T) {
	rep := BuildMonolithic(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
}

func TestInterruptObligationsHold(t *testing.T) {
	rep := BuildInterrupts(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
}

func TestGranularSuiteIsFasterThanMonolithic(t *testing.T) {
	// The Figure 12 shape: the entangled monolithic obligation space
	// costs far more checker time than the decoupled granular one. Each
	// suite takes a few milliseconds, so one run of each compares host
	// noise as much as checker work: take the fastest of five runs,
	// interleaved so a busy spell slows both suites alike. Contention
	// only ever adds time, so the minimum is each suite's own cost.
	var g, m time.Duration
	for i := 0; i < 5; i++ {
		if d := BuildGranular(QuickScale).Run().Stats().Total; i == 0 || d < g {
			g = d
		}
		if d := BuildMonolithic(QuickScale).Run().Stats().Total; i == 0 || d < m {
			m = d
		}
	}
	if m <= g {
		t.Fatalf("monolithic (%v) not slower than granular (%v)", m, g)
	}
	t.Logf("granular=%v monolithic=%v ratio=%.1f", g, m, float64(m)/float64(g))
}

func TestMonolithicDominatedByAllocate(t *testing.T) {
	rep := BuildMonolithic(QuickScale).Run()
	slowest := rep.Slowest(1)[0]
	if !strings.Contains(slowest.Spec.Name, "allocate_app_mem_region") {
		t.Fatalf("slowest obligation is %s", slowest.Spec.Name)
	}
	stats := rep.Stats()
	if slowest.Elapsed < stats.Total/2 {
		t.Fatalf("allocate obligation (%v) does not dominate total (%v)", slowest.Elapsed, stats.Total)
	}
}

func TestEffortTableShape(t *testing.T) {
	r := BuildAll(QuickScale)
	rows := r.Effort()
	byName := map[string]verify.EffortRow{}
	for _, row := range rows {
		byName[row.Component] = row
	}
	for _, comp := range []string{CompKernel, CompArmMPU, CompRiscvMPU, CompFluxStd, CompFluxArm, CompMonolithic} {
		row, ok := byName[comp]
		if !ok {
			t.Fatalf("component %s missing from effort table", comp)
		}
		if row.Fns == 0 || row.SpecLines == 0 {
			t.Fatalf("component %s has empty row %+v", comp, row)
		}
	}
	// Trusted functions exist (lemmas, ghost code, out-of-scope).
	if byName[CompFluxStd].TrustedFns == 0 || byName[CompFluxArm].TrustedFns == 0 {
		t.Fatal("trusted accounting missing")
	}
}

func TestStatsReportFields(t *testing.T) {
	rep := BuildInterrupts(QuickScale).Run()
	s := rep.Stats()
	if s.Fns == 0 || s.Total == 0 || s.Max == 0 || s.Mean == 0 {
		t.Fatalf("stats=%+v", s)
	}
	if s.Max > s.Total || s.Mean > s.Max {
		t.Fatalf("inconsistent stats=%+v", s)
	}
	_ = time.Duration(0)
}

func TestEndToEndObligationsHold(t *testing.T) {
	rep := BuildEndToEnd(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
	if len(rep.Results) == 0 {
		t.Fatal("no end-to-end obligations registered")
	}
}

func TestAccessMapObligationsHold(t *testing.T) {
	rep := BuildAccessMap(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
	// Every port contributes: 5 v7-M configs, 3 v8-M configs, and 2-3 per
	// RISC-V chip depending on TOR support.
	if len(rep.Results) < 10 {
		t.Fatalf("only %d access-map obligations registered", len(rep.Results))
	}
	requireExactDomain(t, rep)
}

// requireExactDomain requires every obligation to enumerate exactly its
// declared domain: fewer points means a sweep aborted on a violation,
// more means a point was enumerated twice.
func requireExactDomain(t *testing.T, rep *verify.Report) {
	t.Helper()
	for _, r := range rep.Results {
		if r.States != r.Spec.DomainSize {
			t.Errorf("%s enumerated %d states, declared domain %d", r.Spec.Name, r.States, r.Spec.DomainSize)
		}
	}
}

func TestSupervisionObligationsHold(t *testing.T) {
	rep := BuildSupervision(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
	if len(rep.Results) < 5 {
		t.Fatalf("only %d supervision obligations registered", len(rep.Results))
	}
}
