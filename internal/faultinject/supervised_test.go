package faultinject

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/telemetry"
)

// TestSupervisedMatchesUnsupervised pins the byte-compatibility
// contract: a campaign with nothing for the supervisor to do renders
// the same bytes under Run's bare supervision as under RunSupervised
// with another worker count, and grows no supervision section — which
// is what keeps the committed regression runpacks verifiable.
func TestSupervisedMatchesUnsupervised(t *testing.T) {
	cfg := Config{Seed: 42, N: 12}
	plain := Run(cfg)
	rep, run, err := RunSupervised(cfg, campaign.Config{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sup != nil {
		t.Fatalf("clean supervised run grew a supervision section: %+v", rep.Sup)
	}
	if got, want := rep.Text(), plain.Text(); got != want {
		t.Fatalf("supervised text differs from unsupervised:\n got:\n%s\nwant:\n%s", got, want)
	}
	if run.Stats.Completed != 12 || run.Stats.Quarantined != 0 {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestSupervisedKillAndResumeDeterminism is the acceptance-criteria
// test at the report level: interrupt a journaled campaign at an
// arbitrary checkpoint, resume it with a different worker count, and
// the final report must be byte-identical to an uninterrupted run's.
func TestSupervisedKillAndResumeDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, N: 10}
	uninterrupted, _, err := RunSupervised(cfg, campaign.Config{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uninterrupted.Text()

	// StopAfter leaves the other worker's in-flight unit to finish, so
	// keep at least workers-1 units of headroom below N to guarantee
	// the run really is interrupted.
	for _, stopAfter := range []int{2, 5, 8} {
		journal := filepath.Join(t.TempDir(), "campaign.journal")
		first, run1, err := RunSupervised(cfg, campaign.Config{
			Workers: 2, Journal: journal, StopAfter: stopAfter, CheckpointEvery: 3,
		}, nil)
		if err != nil {
			t.Fatalf("stopAfter=%d: %v", stopAfter, err)
		}
		if !run1.Interrupted {
			t.Fatalf("stopAfter=%d: run not interrupted", stopAfter)
		}
		// The interrupted report marks unreached scenarios pending.
		if first.Sup == nil || first.Sup.Pending == 0 {
			t.Fatalf("stopAfter=%d: interrupted report has no pending marker: %+v", stopAfter, first.Sup)
		}
		if !strings.Contains(first.Text(), "pending=") {
			t.Fatalf("stopAfter=%d: interrupted text lacks supervision line", stopAfter)
		}

		resumed, run2, err := RunSupervised(cfg, campaign.Config{Workers: 5, Journal: journal}, nil)
		if err != nil {
			t.Fatalf("stopAfter=%d resume: %v", stopAfter, err)
		}
		if run2.Stats.Resumed != run1.Stats.Completed {
			t.Fatalf("stopAfter=%d: resumed %d, first completed %d",
				stopAfter, run2.Stats.Resumed, run1.Stats.Completed)
		}
		if got := resumed.Text(); got != want {
			t.Fatalf("stopAfter=%d: resumed report differs from uninterrupted run\n got:\n%s\nwant:\n%s",
				stopAfter, got, want)
		}
	}
}

// TestSupervisedChaosQuarantine drives the chaos hook through every
// failure class: a wedge (classified timeout), a panic (classified
// crashed, quarantined) and a flake (retried to success). The poison
// scenarios land in the supervision section; the campaign never aborts.
func TestSupervisedChaosQuarantine(t *testing.T) {
	cfg := Config{Seed: 42, N: 8, Chaos: "wedge:1,panic:3,flaky:5"}
	rep, run, err := RunSupervised(cfg, campaign.Config{
		Workers: 4, Timeout: 500 * time.Millisecond, Retries: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sup == nil {
		t.Fatal("chaos run has no supervision section")
	}
	if len(rep.Sup.Quarantined) != 2 {
		t.Fatalf("quarantined: %+v", rep.Sup.Quarantined)
	}
	byFailure := map[string]QuarantinedScenario{}
	for _, q := range rep.Sup.Quarantined {
		byFailure[q.Failure] = q
	}
	if q, ok := byFailure[campaign.FailTimeout]; !ok || q.Attempts != 2 {
		t.Fatalf("wedged scenario: %+v", byFailure)
	}
	if q, ok := byFailure[campaign.FailCrashed]; !ok || q.Attempts != 2 {
		t.Fatalf("panicking scenario: %+v", byFailure)
	}
	// The flaky scenario succeeded on its retry and carries a real result.
	if run.Outcomes[5].Status != campaign.StatusOK || len(run.Outcomes[5].Attempts) != 1 {
		t.Fatalf("flaky scenario: %+v", run.Outcomes[5])
	}
	if rep.Results[5].Sup != "" || rep.Results[5].ARM.Port == "" {
		t.Fatalf("flaky result not folded in: %+v", rep.Results[5])
	}
	// Quarantined results are marked and excluded from the port tallies.
	if !strings.Contains(rep.Results[1].Sup, "quarantined") || !strings.Contains(rep.Results[3].Sup, "quarantined") {
		t.Fatalf("poison results not marked: %q %q", rep.Results[1].Sup, rep.Results[3].Sup)
	}
	arm := rep.ARM.Total()
	if got := arm.Injected + arm.Skipped; got != 6 {
		t.Fatalf("port tally books %d scenarios, want 6 (8 minus 2 quarantined)", got)
	}
	text := rep.Text()
	if !strings.Contains(text, "QUARANTINED sc0001") || !strings.Contains(text, "QUARANTINED sc0003") {
		t.Fatalf("supervision text:\n%s", text)
	}
	if run.Stats.Quarantined != 2 || run.Stats.Crashes != 2 || run.Stats.Timeouts != 2 {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestSupervisedQuarantineSurvivesResume: a poison scenario quarantined
// before an interrupt must come back quarantined — never re-run — and
// the resumed report must match a straight-through chaos run.
func TestSupervisedQuarantineSurvivesResume(t *testing.T) {
	cfg := Config{Seed: 42, N: 6, Chaos: "panic:0"}
	sup := campaign.Config{Workers: 1, Retries: 1, Clock: &campaign.FakeClock{}}
	straight, _, err := RunSupervised(cfg, sup, nil)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.journal")
	supJ := sup
	supJ.Journal, supJ.StopAfter = journal, 2
	if _, run1, err := RunSupervised(cfg, supJ, nil); err != nil {
		t.Fatal(err)
	} else if run1.Outcomes[0].Status != campaign.StatusQuarantined {
		// Worker 1 walks its shard front-to-back, so scenario 0 is in
		// the first two completions.
		t.Fatalf("scenario 0 not quarantined before interrupt: %+v", run1.Outcomes[0])
	}
	supR := sup
	supR.Journal = journal
	resumed, run2, err := RunSupervised(cfg, supR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Outcomes[0].Resumed || run2.Outcomes[0].Status != campaign.StatusQuarantined {
		t.Fatalf("quarantine not restored from journal: %+v", run2.Outcomes[0])
	}
	if got, want := resumed.Text(), straight.Text(); got != want {
		t.Fatalf("resumed chaos report differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordRunsBothOrNeither pins satellite fix 1: when one port's
// recording fails, the caller gets neither recording plus an error —
// never a half pair.
func TestRecordRunsBothOrNeither(t *testing.T) {
	// An app the ARM port has but the RISC-V release subset lacks makes
	// rvRun fail while armRun succeeds.
	sc := GenScenarios(Config{N: 1})[0]
	sc.App = "mpu_walk_region"
	arm, rv, err := RecordRuns(sc, Config{N: 1}, true)
	if err == nil {
		t.Fatal("RecordRuns with a port-missing app should fail")
	}
	if arm != nil || rv != nil {
		t.Fatalf("half pair returned alongside error: arm=%v rv=%v", arm != nil, rv != nil)
	}
	if !strings.Contains(err.Error(), "rv32") {
		t.Fatalf("error does not name the failing port: %v", err)
	}

	// The happy path still returns both.
	sc = GenScenarios(Config{N: 1})[0]
	arm, rv, err = RecordRuns(sc, Config{N: 1}, true)
	if err != nil || arm == nil || rv == nil {
		t.Fatalf("happy path: arm=%v rv=%v err=%v", arm != nil, rv != nil, err)
	}
}

func TestParseChaos(t *testing.T) {
	got, err := ParseChaos("wedge:3, panic:5,flaky:7")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{3: ChaosWedge, 5: ChaosPanic, 7: ChaosFlaky}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, m := range want {
		if got[i] != m {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"wedge", "explode:3", "wedge:x", "wedge:-1", "wedge:3,panic:3"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) should fail", bad)
		}
	}
}

func TestReportEmpty(t *testing.T) {
	if !(&Report{}).Empty() {
		t.Fatal("zero-scenario report should be empty")
	}
	// A real small campaign injects faults, so it is not empty.
	if rep := Run(Config{Seed: 42, N: 6}); rep.Empty() {
		t.Fatalf("real campaign reported empty:\n%s", rep.Text())
	}
	// All-skipped with nothing else to show is empty...
	skipped := &Report{Config: Config{N: 2}, Results: []Result{{}, {}}}
	skipped.tally()
	if !skipped.Empty() {
		t.Fatal("all-skipped report should be empty")
	}
	// ...but supervision activity is evidence, so it is not.
	quarantined := &Report{
		Config:  Config{N: 2},
		Results: []Result{{}, {Sup: "quarantined (crashed after 2 attempts)"}},
		Sup:     &Supervision{Crashes: 2, Quarantined: []QuarantinedScenario{{Label: "x", Failure: "crashed", Attempts: 2}}},
	}
	quarantined.tally()
	if quarantined.Empty() {
		t.Fatal("quarantine evidence should not be empty")
	}
}

// TestChaosWedgeNeedsTimeout: a wedge waits for a cancellation only a
// timeout delivers, so without one the campaign would hang forever.
// RunSupervised must refuse the spec up front, naming the timeout,
// before any scenario runs.
func TestChaosWedgeNeedsTimeout(t *testing.T) {
	cfg := Config{Seed: 42, N: 3, Chaos: "panic:1,wedge:0"}
	plane := telemetry.New()
	_, run, err := RunSupervised(cfg, campaign.Config{Retries: 1}, plane)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("wedge without a timeout: err %v, want one naming the timeout", err)
	}
	if run != nil || plane.Progress().Units != 0 {
		t.Fatalf("campaign started before the spec was rejected: run=%v progress=%+v", run, plane.Progress())
	}
	// With a timeout the same spec runs to completion.
	rep, _, err := RunSupervised(cfg, campaign.Config{Timeout: 100 * time.Millisecond, Retries: 1}, nil)
	if err != nil || rep.Sup == nil || len(rep.Sup.Quarantined) != 2 {
		t.Fatalf("wedge with a timeout: err %v, rep %+v", err, rep)
	}
}

// TestRunQuarantinesCrashedScenario pins the gate behind Run: its bare
// supervision (no timeout, retries or journal) recovers a panicking
// scenario instead of crashing the process, and the report says so in
// a supervision section, which is what the campaign obligation and a
// plain faultcamp run fail on.
func TestRunQuarantinesCrashedScenario(t *testing.T) {
	cfg := Config{Seed: 42, N: 4}.withDefaults()
	run, err := campaign.Supervise(campaign.Config{}, campaignRunner(cfg).units(map[int]string{2: ChaosPanic}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep := ReportFromRun(cfg, run)
	if rep.Sup == nil || len(rep.Sup.Quarantined) != 1 || rep.Sup.Quarantined[0].Failure != campaign.FailCrashed {
		t.Fatalf("crashed scenario not quarantined: %+v", rep.Sup)
	}
	if got, want := rep.Text(), Run(cfg).Text(); got == want {
		t.Fatal("quarantine left no trace in the report text")
	}
}
