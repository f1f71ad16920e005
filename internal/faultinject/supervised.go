package faultinject

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ticktock/internal/campaign"
	"ticktock/internal/telemetry"
)

// This file splits the campaign into supervised units and runs it under
// internal/campaign: every scenario is one independently supervised
// unit with a wall-clock timeout, panic isolation, retry with backoff
// and poison quarantine, plus the resumable journal that makes an
// interrupted campaign continue instead of restart.

// SupervisedKind is the journal/quarantine kind label.
const SupervisedKind = "faultcamp"

// fingerprintView is the canonical config encoding bound into the
// journal header: exactly the fields that determine scenario results.
// Workers and Record are deliberately absent — they change scheduling
// and observability, never results — so a journal resumes under any
// worker count.
type fingerprintView struct {
	Seed        int64  `json:"seed"`
	N           int    `json:"n"`
	MaxRestarts int    `json:"max_restarts"`
	Watchdog    int    `json:"watchdog"`
	BackoffBase uint64 `json:"backoff_base"`
	Chaos       string `json:"chaos,omitempty"`
}

// Fingerprint returns the canonical config bytes the journal digests.
func (c Config) Fingerprint() []byte {
	c = c.withDefaults()
	out, err := json.Marshal(fingerprintView{
		Seed: c.Seed, N: c.N, MaxRestarts: MaxRestarts,
		Watchdog: Watchdog, BackoffBase: BackoffBase, Chaos: c.Chaos,
	})
	if err != nil {
		panic(err) // fixed struct of scalars: cannot fail
	}
	return out
}

// Chaos modes for ParseChaos.
const (
	// ChaosWedge blocks the scenario until the supervisor's timeout
	// cancels it — the wedged-emulator failure mode. RunSupervised
	// rejects it when no timeout is set, since nothing would cancel it.
	ChaosWedge = "wedge"
	// ChaosPanic panics inside the scenario — the worker-crash failure
	// mode.
	ChaosPanic = "panic"
	// ChaosFlaky fails the scenario's first attempt with a transient
	// error, then runs it normally — the retry-then-succeed mode.
	ChaosFlaky = "flaky"
)

// ParseChaos parses a chaos spec ("wedge:3,panic:5,flaky:7") into a
// scenario-index -> mode map. The spec is the supervisor's test/ops
// hook: it injects failures into the *campaign machinery* around real
// scenario indices, exercising timeout classification, crash recovery,
// retry budgets and poison quarantine end to end.
func ParseChaos(spec string) (map[int]string, error) {
	out := map[int]string{}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		mode, idxs, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: chaos entry %q is not mode:index", part)
		}
		switch mode {
		case ChaosWedge, ChaosPanic, ChaosFlaky:
		default:
			return nil, fmt.Errorf("faultinject: unknown chaos mode %q (want wedge, panic or flaky)", mode)
		}
		i, err := strconv.Atoi(idxs)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("faultinject: chaos entry %q: bad scenario index", part)
		}
		if prev, dup := out[i]; dup {
			return nil, fmt.Errorf("faultinject: scenario %d has two chaos modes (%s, %s)", i, prev, mode)
		}
		out[i] = mode
	}
	return out, nil
}

// RunSupervised executes the campaign under the crash-resilient
// supervisor with sup's timeout, retries, journal and chaos spec, and
// folds the outcomes back into a Report. The report's aggregates are
// derived from terminal outcomes only, so they are byte-identical at
// any worker count and across interrupt/resume; the invocation-local
// stats (steals, resume count) live in run.Stats and go to metrics,
// never into the report.
//
// A non-nil plane becomes the supervisor's observer (when the caller
// has not installed one) and receives per-unit tracers and metric
// publishes (see UnitsTelemetry). Telemetry observes the campaign, it
// never steers it: the Report and Run are the same with a nil plane.
func RunSupervised(cfg Config, sup campaign.Config, plane *telemetry.Plane) (*Report, *campaign.Run[Result], error) {
	cfg = cfg.withDefaults()
	chaos, err := ParseChaos(cfg.Chaos)
	if err != nil {
		return nil, nil, err
	}
	for _, mode := range chaos {
		if mode == ChaosWedge && sup.Timeout <= 0 {
			return nil, nil, fmt.Errorf("faultinject: chaos %q wedges a scenario until the supervisor's timeout cancels it, but no timeout is set (campaign.Config.Timeout, faultcamp -timeout)", cfg.Chaos)
		}
	}
	if sup.Workers == 0 {
		sup.Workers = cfg.Workers
	}
	if sup.Observer == nil && plane != nil {
		sup.Observer = plane
	}
	run, err := campaign.Supervise(sup, campaignRunner(cfg).units(chaos, plane))
	if err != nil {
		return nil, run, err
	}
	return ReportFromRun(cfg, run), run, nil
}

// ReportFromRun folds supervised outcomes into the campaign report.
// Quarantined and pending scenarios carry a Sup marker instead of port
// results and are excluded from the port tallies; the Supervision
// section tallies them deterministically.
func ReportFromRun(cfg Config, run *campaign.Run[Result]) *Report {
	cfg = cfg.withDefaults()
	results := make([]Result, len(run.Outcomes))
	sup := &Supervision{}
	// Every outcome, resumed ones included, is booked by the
	// supervisor's own tally rule.
	var st campaign.Stats
	for i, o := range run.Outcomes {
		st.Book(o.Status, o.Attempts)
		switch o.Status {
		case campaign.StatusOK:
			results[i] = o.Result
		case campaign.StatusQuarantined:
			sc := genScenario(cfg.Seed, i)
			results[i] = Result{
				Scenario: sc,
				Sup:      fmt.Sprintf("quarantined (%s after %d attempts)", o.FinalFailure(), len(o.Attempts)),
			}
			sup.Quarantined = append(sup.Quarantined, QuarantinedScenario{
				Label:    sc.Label(),
				Failure:  o.FinalFailure(),
				Attempts: len(o.Attempts),
			})
		case campaign.StatusPending:
			results[i] = Result{Scenario: genScenario(cfg.Seed, i), Sup: "pending (interrupted)"}
			sup.Pending++
		}
	}
	sup.Timeouts, sup.Crashes, sup.Errors, sup.Retries = st.Timeouts, st.Crashes, st.Errors, st.Retries
	sort.Slice(sup.Quarantined, func(a, b int) bool { return sup.Quarantined[a].Label < sup.Quarantined[b].Label })
	rep := &Report{Config: cfg, Results: results}
	if !sup.trivial() {
		rep.Sup = sup
	}
	rep.tally()
	return rep
}
