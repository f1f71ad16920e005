// Package difftest implements the paper's §6.1 differential-testing
// campaign: every release-test case runs to completion on both kernel
// flavours (Tock/monolithic and TickTock/granular) and the console outputs
// are compared. Five cases are expected to differ — the ones printing
// memory-layout details or cycle-dependent sensor values — and the
// remaining sixteen must match byte for byte.
//
// Cases are independent kernels, so the campaign runs as one unit per
// case under campaign.Supervise; a case that fails to run, or panics,
// is recorded in its Row.Err rather than aborting the campaign. When a
// case's result does not match its expectation (an *unexpected*
// mismatch), the case is re-run on both flavours under the kernel event
// tracer and the two timelines are attached to the row side by side,
// turning a byte-diff into a causal timeline.
package difftest

import (
	"context"
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// DefaultQuanta bounds each run.
const DefaultQuanta = 4000

// Config tunes a campaign run. The zero value reproduces the paper's
// §6.1 campaign.
type Config struct {
	// Bugs re-enables the published bug reproductions on the baseline
	// kernel (and MissedModeSwitch in the shared switch path). Used to
	// force unexpected divergences — and exercise the divergence dump.
	Bugs monolithic.BugSet
	// Workers sizes the supervisor's shard pool (0 means one worker per
	// CPU, campaign.Config's default).
	Workers int
	// NoTraceDump disables the automatic divergence trace dump.
	NoTraceDump bool
	// Metrics enables per-case metric snapshots: each flavour's run
	// gets a fresh registry and folded-stack profile, attached to the
	// Row. Merge them across the campaign with MergeMetrics /
	// MergeProfiles. Metrics never charge simulated cycles, so a
	// metered campaign produces byte-identical console outputs.
	Metrics bool
	// FastCore runs every kernel on the block-cache fast core instead
	// of the byte-scan oracle core. Outputs must be byte-identical
	// either way; RunCoreOracle checks exactly that.
	FastCore bool
}

// Row is one line of the campaign table.
type Row struct {
	Name       string
	ExpectDiff bool
	Equal      bool
	// TickTock and Tock hold the combined console output per flavour.
	TickTock string
	Tock     string
	// States summarizes final process states per flavour.
	TickTockStates string
	TockStates     string
	// Err records a campaign-infrastructure failure for this case (the
	// case could not be run); the comparison fields are then
	// meaningless and the row counts as errored, not unexpected.
	Err error
	// Divergence holds the side-by-side event-trace dump captured when
	// the row's result did not match its expectation.
	Divergence string
	// Bisection pinpoints the first divergent flight-recorder snapshot
	// between the two flavours (and the disagreeing field) for rows that
	// did not match their expectation; BisectionText is its rendering.
	// Nil/empty when the row is OK, errored, or dumps are disabled.
	Bisection     *flightrec.Divergence
	BisectionText string
	// Per-flavour metric snapshots and cycle profiles, populated when
	// Config.Metrics is set (nil otherwise).
	TickTockMetrics *metrics.Registry
	TockMetrics     *metrics.Registry
	TickTockProfile *metrics.Profile
	TockProfile     *metrics.Profile
}

// OK reports whether the row matches its expectation. Errored rows are
// never OK.
func (r Row) OK() bool { return r.Err == nil && r.Equal != r.ExpectDiff }

// runOn executes the case on one kernel flavour under cfg.Bugs and
// cfg.FastCore with obs attached, and returns the kernel plus the
// combined output and final states.
func runOn(tc apps.TestCase, fl kernel.Flavour, cfg Config, obs kcore.Observe) (*kernel.Kernel, string, string, error) {
	k, err := kernel.New(kernel.Options{Flavour: fl, Bugs: cfg.Bugs, FastCore: cfg.FastCore, Observe: obs})
	if err != nil {
		return nil, "", "", err
	}
	procs := make([]*kernel.Process, 0, len(tc.Apps))
	for _, app := range tc.Apps {
		p, err := k.LoadProcess(app)
		if err != nil {
			return nil, "", "", fmt.Errorf("difftest %s on %s: %w", tc.Name, fl, err)
		}
		procs = append(procs, p)
	}
	quanta := tc.Quanta
	if quanta == 0 {
		quanta = DefaultQuanta
	}
	if _, err := k.Run(quanta); err != nil {
		return nil, "", "", fmt.Errorf("difftest %s on %s: %w", tc.Name, fl, err)
	}
	k.PublishMetrics()
	var out, states strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&out, "[%s] %s", p.Name, k.Output(p))
		fmt.Fprintf(&states, "%s=%s ", p.Name, p.State)
	}
	return k, out.String(), states.String(), nil
}

// RunFlavour executes one case on one flavour under cfg.Bugs and
// cfg.FastCore with obs attached, and returns the finished kernel — the
// entry point for the tracetab and profile CLIs and the trace and
// metrics accounting checks. With a registry attached, the kernel's
// folded-stack profile is k.Profile(). The other Config fields are
// ignored.
func RunFlavour(tc apps.TestCase, fl kernel.Flavour, cfg Config, obs kcore.Observe) (*kernel.Kernel, error) {
	k, _, _, err := runOn(tc, fl, cfg, obs)
	return k, err
}

// RunRecorded executes one case on one flavour under the flight recorder
// (with tracing, so the recording interleaves the event stream) and
// returns the finished kernel and its recording — the entry point for
// the replay CLI, the determinism checks and divergence bisection.
// cfg.Bugs and cfg.FastCore apply; the other fields are ignored.
func RunRecorded(tc apps.TestCase, fl kernel.Flavour, cfg Config) (*kernel.Kernel, *flightrec.Recording, error) {
	rec := flightrec.NewRecorder(fl.String())
	k, err := RunFlavour(tc, fl, cfg, kcore.Observe{Trace: trace.New(trace.DefaultCapacity), FlightRec: rec})
	if err != nil {
		return nil, nil, err
	}
	return k, rec.Finish(), nil
}

// RunCaseConfig executes one case on both flavours. Infrastructure
// failures land in Row.Err; an unexpected mismatch triggers the
// divergence trace dump (unless disabled).
func RunCaseConfig(tc apps.TestCase, cfg Config) Row {
	return runCase(tc, cfg, nil)
}

// runCase is RunCaseConfig with a kernel tracer attached to the
// TickTock-flavour run — the hook the live telemetry plane uses to nest
// a case's kernel events under its attempt span. The tracer observes
// the cycle meter without charging it, so a traced Row is identical to
// an untraced one. A nil tracer is exactly RunCaseConfig.
func runCase(tc apps.TestCase, cfg Config, tr *trace.Tracer) Row {
	row := Row{Name: tc.Name, ExpectDiff: tc.ExpectDiff}
	ttObs, tkObs := kcore.Observe{Trace: tr}, kcore.Observe{}
	if cfg.Metrics {
		ttObs.Metrics, tkObs.Metrics = metrics.NewRegistry(), metrics.NewRegistry()
	}
	ttK, tt, ttStates, err := runOn(tc, kernel.FlavourTickTock, cfg, ttObs)
	if err != nil {
		row.Err = err
		return row
	}
	tkK, tk, tkStates, err := runOn(tc, kernel.FlavourTock, cfg, tkObs)
	if err != nil {
		row.Err = err
		return row
	}
	if cfg.Metrics {
		row.TickTockMetrics, row.TockMetrics = ttObs.Metrics, tkObs.Metrics
		row.TickTockProfile, row.TockProfile = ttK.Profile(), tkK.Profile()
	}
	row.Equal = tt == tk
	row.TickTock, row.Tock = tt, tk
	row.TickTockStates, row.TockStates = ttStates, tkStates
	if !row.OK() && !cfg.NoTraceDump {
		row.Divergence = divergenceDump(tc, cfg)
		row.Bisection, row.BisectionText = bisectDivergence(tc, cfg)
	}
	return row
}

// CrossFlavourIgnore is the comparison filter for bisecting *between*
// flavours: the two kernels legitimately differ cycle-by-cycle (the
// granular MPU abstraction costs different cycle counts, so timers,
// stack contents and register files drift apart without anything being
// wrong). Only the behaviourally-meaningful fields are compared: the
// per-process console-output digests, the lifecycle states, and the LED
// bank — exactly the signals the §6.1 campaign diffs.
func CrossFlavourIgnore(name string) bool {
	if strings.HasPrefix(name, "out.") || strings.HasSuffix(name, ".state") || name == "kern.leds" {
		return false
	}
	return true
}

// bisectDivergence records the case on both flavours under the flight
// recorder and binary-searches for the first snapshot where the
// behavioural fields disagree — turning "the outputs differ" into "the
// first wrong write happened in this quantum, in this field".
func bisectDivergence(tc apps.TestCase, cfg Config) (*flightrec.Divergence, string) {
	_, ttRec, ttErr := RunRecorded(tc, kernel.FlavourTickTock, cfg)
	_, tkRec, tkErr := RunRecorded(tc, kernel.FlavourTock, cfg)
	if ttErr != nil || tkErr != nil {
		return nil, fmt.Sprintf("bisection re-run errors: ticktock=%v tock=%v", ttErr, tkErr)
	}
	div, err := flightrec.Bisect(ttRec, tkRec, CrossFlavourIgnore)
	if err != nil {
		return nil, fmt.Sprintf("bisection failed: %v", err)
	}
	if div == nil {
		// The behavioural fields never diverge at quantum granularity —
		// e.g. the outputs differ only in cycle-dependent values that
		// hash differently but the dump already shows.
		return nil, "bisection: no snapshot-level divergence in behavioural fields"
	}
	return div, div.String()
}

// divergenceDump re-runs the case on both flavours under tracing and
// renders the two timelines side by side. The runs are deterministic, so
// the re-run reproduces the divergence exactly.
func divergenceDump(tc apps.TestCase, cfg Config) string {
	ttTr := trace.New(trace.DefaultCapacity)
	tkTr := trace.New(trace.DefaultCapacity)
	_, _, _, ttErr := runOn(tc, kernel.FlavourTickTock, cfg, kcore.Observe{Trace: ttTr})
	_, _, _, tkErr := runOn(tc, kernel.FlavourTock, cfg, kcore.Observe{Trace: tkTr})
	var b strings.Builder
	if ttErr != nil || tkErr != nil {
		fmt.Fprintf(&b, "trace re-run errors: ticktock=%v tock=%v\n", ttErr, tkErr)
	}
	b.WriteString(trace.SideBySide("== ticktock ==", ttTr.TextDump(), "== tock ==", tkTr.TextDump(), 72))
	return b.String()
}

// RunAllConfig executes the whole campaign under campaign.Supervise
// with no timeout and no retries. Cases are independent kernels, so they
// parallelize freely; rows come back in case order regardless of
// completion order.
func RunAllConfig(cfg Config) []Row {
	rows, _, _ := RunAllSupervised(cfg, campaign.Config{}, nil) // no journal: cannot fail
	return rows
}

// RunAllSupervised executes the campaign under the crash-resilient
// campaign supervisor: every case gets sup's wall-clock timeout, panic
// isolation and retry budget, and a case that fails every attempt is
// quarantined into an errored row carrying its last attempt's error
// instead of wedging or crashing the pool. Rows carry live registries,
// profiles and error values, so they are not journal-serializable:
// supervision here is in-memory only and sup.Journal must be empty
// (resumable manifests are the fault campaign's feature).
//
// A non-nil plane becomes the supervisor's observer (when the caller
// has not installed one), each attempt's TickTock run carries a kernel
// tracer drawn from the plane's nest budget, and each completed row
// publishes its per-flavour registries into the plane's streaming
// aggregate — so the live aggregate converges to MergeMetrics of the
// finished rows. Telemetry observes the campaign; the rows are the same
// with or without it.
func RunAllSupervised(cfg Config, sup campaign.Config, plane *telemetry.Plane) ([]Row, *campaign.Run[Row], error) {
	return superviseCases(apps.All(), cfg, sup, plane)
}

// superviseCases is RunAllSupervised over an explicit case list.
func superviseCases(cases []apps.TestCase, cfg Config, sup campaign.Config, plane *telemetry.Plane) ([]Row, *campaign.Run[Row], error) {
	if sup.Journal != "" {
		return nil, nil, fmt.Errorf("difftest: rows are not journal-serializable; supervised difftest runs cannot resume")
	}
	if sup.Workers == 0 {
		sup.Workers = cfg.Workers
	}
	if sup.Observer == nil && plane != nil {
		sup.Observer = plane
	}
	src := campaign.Source[Row]{
		N:    len(cases),
		Kind: "difftest",
		Key:  func(i int) string { return cases[i].Name },
		Run: func(ctx context.Context, i int) (Row, error) {
			row := runCase(cases[i], cfg, plane.UnitTracer(i))
			if row.Err != nil {
				// Surface the infrastructure failure to the supervisor so
				// a transient one is retried and a persistent one is
				// quarantined; the quarantined row keeps its text.
				return Row{}, row.Err
			}
			plane.UnitObservation(i, func(reg *metrics.Registry) {
				reg.Merge(row.TickTockMetrics)
				reg.Merge(row.TockMetrics)
			})
			return row, nil
		},
	}
	run, err := campaign.Supervise(sup, src)
	if err != nil {
		return nil, run, err
	}
	rows := make([]Row, len(cases))
	for i, o := range run.Outcomes {
		switch o.Status {
		case campaign.StatusOK:
			rows[i] = o.Result
		case campaign.StatusQuarantined:
			rows[i] = Row{Name: cases[i].Name, ExpectDiff: cases[i].ExpectDiff, Err: quarantineErr(o)}
		}
	}
	return rows, run, nil
}

// quarantineErr is the errored-row cause of a unit the supervisor
// quarantined: the failure class and attempt count, then the last
// attempt's own error text.
func quarantineErr[R any](o campaign.Outcome[R]) error {
	last := o.Attempts[len(o.Attempts)-1]
	return fmt.Errorf("quarantined by the campaign supervisor: %s after %d attempts: %s",
		last.Failure, len(o.Attempts), last.Err)
}

// MergeMetrics folds every row's per-flavour registries into one
// campaign-wide registry — the snapshot-then-merge pattern that lets the
// supervisor's workers record without shared-registry contention. Rows without
// metrics (errored, or Config.Metrics off) contribute nothing.
func MergeMetrics(rows []Row) *metrics.Registry {
	out := metrics.NewRegistry()
	for _, r := range rows {
		out.Merge(r.TickTockMetrics)
		out.Merge(r.TockMetrics)
	}
	return out
}

// MergeProfiles folds every row's per-flavour cycle profiles into one
// campaign-wide folded-stack profile. Because each per-case profile sums
// to its kernel's cycle meter, the merged total is the campaign's total
// simulated cycles.
func MergeProfiles(rows []Row) *metrics.Profile {
	out := metrics.NewProfile()
	for _, r := range rows {
		out.Merge(r.TickTockProfile)
		out.Merge(r.TockProfile)
	}
	return out
}

// Summary tallies a campaign result.
type Summary struct {
	Total, Equal, Differing, Unexpected, Errored int
}

// Summarize computes the §6.1 headline numbers.
func Summarize(rows []Row) Summary {
	var s Summary
	s.Total = len(rows)
	for _, r := range rows {
		if r.Err != nil {
			s.Errored++
			continue
		}
		if r.Equal {
			s.Equal++
		} else {
			s.Differing++
		}
		if !r.OK() {
			s.Unexpected++
		}
	}
	return s
}

// Table renders the campaign as text.
func Table(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-8s %-10s %s\n", "test", "equal", "expected", "verdict")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-18s %-8s %-10s ERROR: %v\n", r.Name, "-", "-", r.Err)
			continue
		}
		verdict := "ok"
		if !r.OK() {
			verdict = "UNEXPECTED"
		}
		expected := "match"
		if r.ExpectDiff {
			expected = "differ"
		}
		fmt.Fprintf(&b, "%-18s %-8v %-10s %s\n", r.Name, r.Equal, expected, verdict)
	}
	s := Summarize(rows)
	fmt.Fprintf(&b, "\n%d tests, %d identical, %d differing (%d unexpected, %d errored)\n",
		s.Total, s.Equal, s.Differing, s.Unexpected, s.Errored)
	return b.String()
}
