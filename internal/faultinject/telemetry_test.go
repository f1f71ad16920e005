package faultinject

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// TestRunScenarioTracedMatchesUntraced pins the zero-steering contract:
// attaching a kernel tracer to the injected runs (runner.scenario, the
// unit body of a telemetered campaign) changes nothing about
// the Result — classification, signatures, violations and quarantine
// deltas are identical, and the tracer actually saw kernel events.
func TestRunScenarioTracedMatchesUntraced(t *testing.T) {
	cfg := Config{Seed: 42, N: 4}
	for _, sc := range GenScenarios(cfg) {
		plain := RunScenario(sc, cfg)
		tr := trace.New(4096)
		traced := campaignRunner(cfg.withDefaults()).scenario(sc, tr)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s: traced result differs from untraced:\nplain:  %+v\ntraced: %+v",
				sc.Label(), plain, traced)
		}
		if len(tr.Events()) == 0 {
			t.Fatalf("%s: tracer attached but saw no kernel events", sc.Label())
		}
	}
}

// nonzeroFaultSeries extracts the nonzero fault_* counter series from a
// registry as id -> value. The live streaming aggregate books only
// series that moved, while the post-hoc Report.Publish also creates the
// zero remainder of the (port, kind) matrix, so the comparable surface
// is the nonzero one.
func nonzeroFaultSeries(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, cp := range reg.Snapshot().Counters {
		if strings.HasPrefix(cp.Name, "fault_") && cp.Value != 0 {
			out[cp.ID] = cp.Value
		}
	}
	return out
}

// TestLiveAggregateMatchesPostHocReport pins the streaming-aggregation
// invariant for real campaigns: at any worker count, the plane's live
// registry ends up carrying exactly the nonzero fault_* series the
// finished report publishes post-hoc.
func TestLiveAggregateMatchesPostHocReport(t *testing.T) {
	cfg := Config{Seed: 42, N: 10}
	var first map[string]uint64
	for _, workers := range []int{1, 2, 4} {
		plane := telemetry.New()
		rep, _, err := RunSupervised(cfg, campaign.Config{Workers: workers}, plane)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		posthoc := metrics.NewRegistry()
		rep.Publish(posthoc)
		want := nonzeroFaultSeries(posthoc)
		got := nonzeroFaultSeries(plane.Live())
		if len(want) == 0 {
			t.Fatalf("workers=%d: vacuous campaign, no nonzero fault_* series", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: live aggregate != post-hoc publish\nlive:     %v\npost-hoc: %v",
				workers, got, want)
		}
		if first == nil {
			first = want
		} else if !reflect.DeepEqual(want, first) {
			t.Errorf("workers=%d: report depends on worker count", workers)
		}
	}
}

// TestLiveAggregateSkipsQuarantinedUnits pins the publish-on-terminal
// rule under chaos: a unit that ends quarantined never publishes into
// the live aggregate (mirroring tally's res.Sup skip), and retried
// units publish exactly once.
func TestLiveAggregateSkipsQuarantinedUnits(t *testing.T) {
	cfg := Config{Seed: 42, N: 6, Chaos: "panic:1,flaky:3"}
	plane := telemetry.New()
	sup := campaign.Config{Workers: 2, Retries: 1, Clock: &campaign.FakeClock{}}
	rep, run, err := RunSupervised(cfg, sup, plane)
	if err != nil {
		t.Fatal(err)
	}
	if run.Outcomes[1].Status != campaign.StatusQuarantined {
		t.Fatalf("chaos panic unit not quarantined: %v", run.Outcomes[1].Status)
	}
	if run.Outcomes[3].Status != campaign.StatusOK || len(run.Outcomes[3].Attempts) != 1 {
		t.Fatalf("chaos flaky unit not retried to success: %+v", run.Outcomes[3])
	}
	posthoc := metrics.NewRegistry()
	rep.Publish(posthoc)
	got, want := nonzeroFaultSeries(plane.Live()), nonzeroFaultSeries(posthoc)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live aggregate != post-hoc publish under chaos\nlive:     %v\npost-hoc: %v", got, want)
	}
}

// ledgerCheck wraps a plane as the supervisor's observer and checks,
// at every unit completion, that the snapshot /progress would serve
// adds up: ok + quarantined = done.
type ledgerCheck struct {
	*telemetry.Plane
	t *testing.T
}

func (c ledgerCheck) UnitDone(unit, worker int, status campaign.Status, attempts []campaign.Attempt) {
	c.Plane.UnitDone(unit, worker, status, attempts)
	if pr := c.Progress(); pr.OK+pr.Quarantined != pr.Done {
		c.t.Errorf("after unit %d: ok %d + quarantined %d != done %d", unit, pr.OK, pr.Quarantined, pr.Done)
	}
}

// checkLedgerAgreement demands that the plane's progress and timeline
// read exactly the finished run's supervision ledger.
func checkLedgerAgreement(t *testing.T, name string, plane *telemetry.Plane, st campaign.Stats) {
	t.Helper()
	pr := plane.Progress()
	want := telemetry.Progress{
		Kind: SupervisedKind, Units: int(st.Units), Workers: pr.Workers, Resumed: int(st.Resumed),
		Done: st.Resumed + st.Completed, OK: st.Resumed + st.Completed - st.Quarantined,
		Quarantined: st.Quarantined, Retries: st.Retries, Timeouts: st.Timeouts,
		Crashes: st.Crashes, Errors: st.Errors, Steals: st.Steals, Checkpoints: st.Checkpoints,
		ElapsedMS: pr.ElapsedMS, ETAMS: pr.ETAMS, Interrupted: pr.Interrupted, PerWorker: pr.PerWorker,
	}
	if !reflect.DeepEqual(pr, want) {
		t.Errorf("%s: /progress disagrees with the ledger\n got: %+v\nwant: %+v", name, pr, want)
	}
	if pr.OK+pr.Quarantined != pr.Done {
		t.Errorf("%s: ok %d + quarantined %d != done %d", name, pr.OK, pr.Quarantined, pr.Done)
	}
	var checkpoints uint64
	for _, in := range plane.Timeline().Instants {
		if in.Name == "checkpoint" {
			checkpoints++
		}
	}
	if checkpoints != st.Checkpoints {
		t.Errorf("%s: timeline has %d checkpoint instants, the journal wrote %d", name, checkpoints, st.Checkpoints)
	}
}

// TestTelemetryReadsSupervisionLedger pins the one-ledger rule: the
// plane's /progress and timeline read the supervisor's own counts
// (campaign.Stats, the campaign_* series) instead of keeping a copy.
// A chaos campaign with retries is journaled, stopped after ten units
// and resumed, each invocation under its own plane; a second run has no
// journal. Resumed units count towards ok and quarantined, failed
// attempts are counted once their unit terminates, a checkpoint instant
// marks a journal checkpoint (none without a journal), and the report's
// supervision section is the uninterrupted run's.
func TestTelemetryReadsSupervisionLedger(t *testing.T) {
	cfg := Config{Seed: 42, N: 20, Chaos: "panic:1,flaky:3,flaky:12"}
	sup := campaign.Config{Workers: 1, Retries: 1, Clock: &campaign.FakeClock{}}
	straight, _, err := RunSupervised(cfg, sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if straight.Sup == nil || straight.Sup.Retries != 3 || straight.Sup.Crashes != 2 || straight.Sup.Errors != 2 ||
		len(straight.Sup.Quarantined) != 1 {
		t.Fatalf("chaos did not land as planned: %+v", straight.Sup)
	}

	journal := filepath.Join(t.TempDir(), "campaign.journal")
	for _, step := range []struct {
		name      string
		stopAfter int
		workers   int
	}{{"stopped", 10, 1}, {"resumed", 0, 2}} {
		plane := telemetry.New()
		s := sup
		s.Journal, s.StopAfter, s.Workers = journal, step.stopAfter, step.workers
		s.Observer = ledgerCheck{Plane: plane, t: t}
		rep, run, err := RunSupervised(cfg, s, plane)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if run.Stats.Checkpoints == 0 || run.Stats.Quarantined != 1 {
			t.Fatalf("%s: ledger %+v, want journal checkpoints and scenario 1 quarantined", step.name, run.Stats)
		}
		checkLedgerAgreement(t, step.name, plane, run.Stats)
		if step.stopAfter == 0 && !reflect.DeepEqual(rep.Sup, straight.Sup) {
			t.Errorf("%s: report supervision %+v, uninterrupted run %+v", step.name, rep.Sup, straight.Sup)
		}
	}

	plane := telemetry.New()
	s := sup
	s.Observer = ledgerCheck{Plane: plane, t: t}
	rep, run, err := RunSupervised(cfg, s, plane)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Checkpoints != 0 || run.Stats.Retries != 3 {
		t.Fatalf("no-journal ledger %+v, want 3 retries and no checkpoints", run.Stats)
	}
	checkLedgerAgreement(t, "no journal", plane, run.Stats)
	if !reflect.DeepEqual(rep.Sup, straight.Sup) {
		t.Errorf("no journal: report supervision %+v, uninterrupted run %+v", rep.Sup, straight.Sup)
	}
}
