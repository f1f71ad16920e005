package runpack

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
)

// KindRegress marks a distilled regression pack: the minimal standing
// evidence of a once-observed divergence or violation, replayed by
// regress_test in CI forever after.
const KindRegress = "regress"

// RegressName is the result member of a regression pack.
const RegressName = "regress.json"

// RegressSchema versions the regress.json shape.
const RegressSchema = 1

// DivergenceView is the JSON rendering of a flightrec.Divergence.
type DivergenceView struct {
	Index  int    `json:"index"`
	CycleA uint64 `json:"cycle_a"`
	CycleB uint64 `json:"cycle_b"`
	Field  string `json:"field"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
	Steps  int    `json:"steps"`
}

// Regress is the regress.json result member of a regression pack: which
// run the evidence was distilled from, the invariant the pack stands
// for, and the bisected first divergence. The recording slices carry the
// expected post-state via their manifest ReplayDigests.
type Regress struct {
	Schema int `json:"schema"`
	// Source is "difftest" or "faultcamp".
	Source string `json:"source"`
	// Case and Bug identify a difftest distillation: the release-test
	// case, and the seeded baseline bug (if any) the divergence was
	// observed under.
	Case string `json:"case,omitempty"`
	Bug  string `json:"bug,omitempty"`
	// Seed, N and Scenario identify a faultcamp distillation: the
	// campaign coordinates of the offending scenario.
	Seed          int64  `json:"seed,omitempty"`
	N             int    `json:"n,omitempty"`
	Scenario      int    `json:"scenario,omitempty"`
	ScenarioLabel string `json:"scenario_label,omitempty"`
	// Invariant is what CheckRegression re-asserts on current code:
	// "row-ok" (the case matches its expectation) or "no-violations"
	// (the scenario's isolation sweep stays clean).
	Invariant string `json:"invariant"`
	// Compare names the bisected pair: "cross-flavour" (TickTock vs
	// Tock under the same config) or "clean-vs-buggy" (same flavour,
	// with and without the seeded bug — used when the bug collapses a
	// legitimate flavour difference instead of creating one).
	Compare string `json:"compare,omitempty"`
	// Divergence is the bisected first divergent snapshot between the
	// two recorded timelines (nil when the behavioural fields never
	// diverge at snapshot granularity).
	Divergence *DivergenceView `json:"divergence,omitempty"`
	// Violations are the isolation-sweep findings (faultcamp source).
	Violations []string `json:"violations,omitempty"`
}

// Invariant values.
const (
	InvariantRowOK        = "row-ok"
	InvariantNoViolations = "no-violations"
)

func divergenceView(d *flightrec.Divergence) *DivergenceView {
	if d == nil {
		return nil
	}
	return &DivergenceView{
		Index: d.Index, CycleA: d.CycleA, CycleB: d.CycleB,
		Field: d.Field, A: d.A, B: d.B, Steps: d.Steps,
	}
}

// sliceRecording distills a recording down to the two snapshots that
// matter: a synthesized keyframe holding the complete state just before
// idx, and the original delta snapshot at idx — plus the trace-event
// window covering both. Replaying the slice to its end reproduces the
// exact state the full recording had at idx, at a fraction of the bytes.
func sliceRecording(rec *flightrec.Recording, idx int) (*flightrec.Recording, error) {
	if len(rec.Snapshots) == 0 {
		return nil, fmt.Errorf("runpack: cannot slice an empty recording")
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(rec.Snapshots) {
		idx = len(rec.Snapshots) - 1
	}
	pre := idx - 1
	if pre < 0 {
		pre = 0
	}
	s, err := rec.ReplayAt(pre)
	if err != nil {
		return nil, fmt.Errorf("runpack: slicing %s at %d: %w", rec.Port, idx, err)
	}
	out := &flightrec.Recording{Port: rec.Port, PageSize: rec.PageSize}
	key := flightrec.Snapshot{
		Index:    0,
		Cycle:    rec.Snapshots[pre].Cycle,
		EventSeq: rec.Snapshots[pre].EventSeq,
		Label:    rec.Snapshots[pre].Label,
		Keyframe: true,
		Fields:   s.Fields(),
	}
	for _, base := range s.PageBases() {
		key.Pages = append(key.Pages, flightrec.Page{Base: base, Data: s.Page(base)})
	}
	out.Snapshots = append(out.Snapshots, key)
	if idx > pre {
		orig := rec.Snapshots[idx]
		out.Snapshots = append(out.Snapshots, flightrec.Snapshot{
			Index:    1,
			Cycle:    orig.Cycle,
			EventSeq: orig.EventSeq,
			Label:    orig.Label,
			Fields:   orig.Fields,
			Pages:    orig.Pages,
		})
	}
	// Keep the events whose per-snapshot windows the slice can still
	// serve: everything from the window before the keyframe through the
	// last kept snapshot.
	var from uint64
	if pre > 0 {
		from = rec.Snapshots[pre-1].EventSeq
	}
	to := rec.Snapshots[idx].EventSeq
	for _, e := range rec.Events {
		if e.Seq >= from && e.Seq < to {
			out.Events = append(out.Events, e)
		}
	}
	return out, nil
}

// deriveDifftestRegress re-runs a release-test case under the flight
// recorder (with the named baseline bug seeded, if any), bisects two
// timelines to the first divergent snapshot, and returns the regress
// record plus the two minimal recording slices. The bisected pair
// adapts to the divergence shape: when the two flavours disagree, the
// cross-flavour pair localizes where; when the bug instead *collapsed*
// a legitimate flavour difference (the flavours unexpectedly agree),
// the clean-vs-buggy pair on the TickTock flavour localizes where the
// bug first bent the machine. Pure function of (caseName, bug) — the
// regress executor re-derives it byte-identically.
func deriveDifftestRegress(caseName, bug string) (*Regress, map[string]*flightrec.Recording, error) {
	tc, err := findCase(caseName)
	if err != nil {
		return nil, nil, err
	}
	cfg := difftest.Config{NoTraceDump: true}
	if bug != "" {
		var ok bool
		if cfg.Bugs, ok = monolithic.ParseBug(bug); !ok {
			return nil, nil, fmt.Errorf("runpack: unknown baseline bug %q", bug)
		}
	}
	_, ttRec, err := difftest.RunRecorded(tc, kernel.FlavourTickTock, cfg)
	if err != nil {
		return nil, nil, err
	}
	_, tkRec, err := difftest.RunRecorded(tc, kernel.FlavourTock, cfg)
	if err != nil {
		return nil, nil, err
	}
	div, err := flightrec.Bisect(ttRec, tkRec, difftest.CrossFlavourIgnore)
	if err != nil {
		return nil, nil, fmt.Errorf("runpack: bisecting %s: %w", caseName, err)
	}
	r := &Regress{
		Schema:    RegressSchema,
		Source:    KindDifftest,
		Case:      caseName,
		Bug:       bug,
		Invariant: InvariantRowOK,
	}
	a, b := ttRec, tkRec
	aName, bName := "slice-ticktock.ttfr", "slice-tock.ttfr"
	r.Compare = "cross-flavour"
	if div == nil && bug != "" {
		// The flavours agree under the bug — compare the buggy TickTock
		// run against its clean twin instead.
		_, cleanRec, err := difftest.RunRecorded(tc, kernel.FlavourTickTock, difftest.Config{NoTraceDump: true})
		if err != nil {
			return nil, nil, err
		}
		div, err = flightrec.Bisect(cleanRec, ttRec, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("runpack: bisecting %s clean-vs-buggy: %w", caseName, err)
		}
		a, b = cleanRec, ttRec
		aName, bName = "slice-clean.ttfr", "slice-buggy.ttfr"
		r.Compare = "clean-vs-buggy"
	}
	r.Divergence = divergenceView(div)
	idx := len(a.Snapshots) - 1
	if div != nil {
		idx = div.Index
	}
	aSlice, err := sliceRecording(a, idx)
	if err != nil {
		return nil, nil, err
	}
	bSlice, err := sliceRecording(b, idx)
	if err != nil {
		return nil, nil, err
	}
	slices := map[string]*flightrec.Recording{aName: aSlice, bName: bSlice}
	return r, slices, nil
}

// deriveFaultcampRegress re-runs one campaign scenario, re-records its
// clean and injected timelines on both ports, and bisects clean vs
// injected per port to localize where the injected fault first bent the
// machine. Pure function of (seed, n, scenario).
func deriveFaultcampRegress(seed int64, n, scenario int) (*Regress, map[string]*flightrec.Recording, error) {
	cfg := faultinject.Config{Seed: seed, N: n}
	sc, err := faultinject.ScenarioAt(cfg, scenario)
	if err != nil {
		return nil, nil, fmt.Errorf("runpack: %w", err)
	}
	res := faultinject.RunScenario(sc, cfg)
	if res.ARM.Err != "" || res.RV.Err != "" {
		return nil, nil, fmt.Errorf("runpack: scenario %s errored: arm=%q rv=%q", sc.Label(), res.ARM.Err, res.RV.Err)
	}
	cleanARM, cleanRV, err := faultinject.RecordRuns(sc, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	injARM, injRV, err := faultinject.RecordRuns(sc, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	// Bisect clean vs injected on the ARM port (same port, so every
	// field is comparable); fall back to the RISC-V pair when the ARM
	// injection was masked or skipped.
	div, err := flightrec.Bisect(cleanARM, injARM, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("runpack: bisecting %s (arm): %w", sc.Label(), err)
	}
	armIdx := len(injARM.Snapshots) - 1
	if div != nil {
		armIdx = div.Index
	}
	rvDiv, err := flightrec.Bisect(cleanRV, injRV, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("runpack: bisecting %s (rv): %w", sc.Label(), err)
	}
	rvIdx := len(injRV.Snapshots) - 1
	if rvDiv != nil {
		rvIdx = rvDiv.Index
	}
	if div == nil {
		div = rvDiv
	}
	armSlice, err := sliceRecording(injARM, armIdx)
	if err != nil {
		return nil, nil, err
	}
	rvSlice, err := sliceRecording(injRV, rvIdx)
	if err != nil {
		return nil, nil, err
	}
	violations := append(append([]string{}, res.ARM.Violations...), res.RV.Violations...)
	r := &Regress{
		Schema:        RegressSchema,
		Source:        KindFaultcamp,
		Seed:          seed,
		N:             n,
		Scenario:      scenario,
		ScenarioLabel: sc.Label(),
		Invariant:     InvariantNoViolations,
		Divergence:    divergenceView(div),
		Violations:    violations,
	}
	slices := map[string]*flightrec.Recording{
		"slice-arm.ttfr": armSlice,
		"slice-rv.ttfr":  rvSlice,
	}
	return r, slices, nil
}

// regressBytes renders the canonical regress.json encoding.
func regressBytes(r *Regress) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// sealRegress packages a derived regression into a content-addressed
// pack under root.
func sealRegress(root, command string, r *Regress, slices map[string]*flightrec.Recording) (dir, receipt string, err error) {
	data, err := regressBytes(r)
	if err != nil {
		return "", "", err
	}
	b := NewBuilder(KindRegress, command, r)
	b.AddFile(RegressName, data)
	b.SetResult(RegressName)
	for name, rec := range slices {
		b.AddRecording(name, rec)
	}
	return b.Seal(root)
}

// DistillCase distills a difftest divergence into a regression pack
// under root: the case is re-run on both flavours under the flight
// recorder, bisected to the first behavioural divergence, and the two
// minimal recording slices plus the regress record are sealed into a
// content-addressed pack. bugs names the seeded baseline bug the
// divergence was observed under (zero for none).
func DistillCase(root, caseName string, bugs monolithic.BugSet) (dir, receipt string, err error) {
	bug := bugs.Name()
	r, slices, err := deriveDifftestRegress(caseName, bug)
	if err != nil {
		return "", "", err
	}
	cmd := "regress -case " + caseName
	if bug != "" {
		cmd += " -bug " + bug
	}
	return sealRegress(root, cmd, r, slices)
}

// DistillScenario distills a campaign scenario (typically one whose
// isolation sweep found violations) into a regression pack under root:
// clean and injected runs are re-recorded on both ports, bisected to
// where the fault first bent the machine, and the injected runs' minimal
// slices are sealed with the regress record.
func DistillScenario(root string, cfg faultinject.Config, scenario int) (dir, receipt string, err error) {
	if cfg.N == 0 {
		cfg.N = faultinject.DefaultScenarios
	}
	r, slices, err := deriveFaultcampRegress(cfg.Seed, cfg.N, scenario)
	if err != nil {
		return "", "", err
	}
	cmd := fmt.Sprintf("regress -seed %d -n %d -scenario %d", cfg.Seed, cfg.N, scenario)
	return sealRegress(root, cmd, r, slices)
}

// RegressOptions tunes CheckRegression. The zero value checks the
// invariant against current code; Bugs re-seeds a baseline bug to
// simulate the pre-fix code (how the tests prove a pack fails before
// its fix and passes after).
type RegressOptions struct {
	Bugs monolithic.BugSet
}

// ReadRegress loads the regress record of a regression pack.
func ReadRegress(dir string) (*Regress, error) {
	m, _, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.Kind != KindRegress {
		return nil, fmt.Errorf("runpack: %s is a %s pack, not a regression", dir, m.Kind)
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.Result))
	if err != nil {
		return nil, err
	}
	var r Regress
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("runpack: %s: %w", dir, err)
	}
	if r.Schema != RegressSchema {
		return nil, fmt.Errorf("runpack: %s: regress schema %d, want %d", dir, r.Schema, RegressSchema)
	}
	return &r, nil
}

// CheckRegression replays one regression pack: the pack's integrity
// chain is verified (digests, recording slices re-replayed to their
// pinned post-states), then the distilled invariant is re-asserted
// against current code — the case must match its expectation, or the
// scenario's isolation sweep must stay clean. A non-nil error means the
// once-fixed bug is back (or the pack is damaged).
func CheckRegression(dir string, opts RegressOptions) error {
	if err := Verify(dir, VerifyOptions{}); err != nil {
		return err
	}
	r, err := ReadRegress(dir)
	if err != nil {
		return err
	}
	switch r.Source {
	case KindDifftest:
		tc, err := findCase(r.Case)
		if err != nil {
			return err
		}
		row := difftest.RunCaseConfig(tc, difftest.Config{Bugs: opts.Bugs, NoTraceDump: true})
		if row.Err != nil {
			return fmt.Errorf("runpack: %s: re-running case %s: %w", dir, r.Case, row.Err)
		}
		if !row.OK() {
			return fmt.Errorf("runpack: %s: REGRESSION: case %s diverges again (equal=%v expect-diff=%v) — distilled from bug %q",
				dir, r.Case, row.Equal, row.ExpectDiff, r.Bug)
		}
	case KindFaultcamp:
		cfg := faultinject.Config{Seed: r.Seed, N: r.N}
		sc, err := faultinject.ScenarioAt(cfg, r.Scenario)
		if err != nil {
			return fmt.Errorf("runpack: %s: %w", dir, err)
		}
		res := faultinject.RunScenario(sc, cfg)
		if res.ARM.Err != "" || res.RV.Err != "" {
			return fmt.Errorf("runpack: %s: re-running %s: arm=%q rv=%q", dir, r.ScenarioLabel, res.ARM.Err, res.RV.Err)
		}
		if n := len(res.ARM.Violations) + len(res.RV.Violations); n > 0 {
			return fmt.Errorf("runpack: %s: REGRESSION: scenario %s violates isolation again (%d violations)",
				dir, r.ScenarioLabel, n)
		}
	default:
		return fmt.Errorf("runpack: %s: unknown regress source %q", dir, r.Source)
	}
	return nil
}

// executeRegress re-derives a regression pack's regress.json from its
// receipt command.
func executeRegress(args []string) ([]byte, error) {
	var caseName, bug string
	var seed int64
	var n, scenario int
	scenario = -1
	if err := parseFlags(args, map[string]func(string) error{
		"-case":     func(v string) error { caseName = v; return nil },
		"-bug":      func(v string) error { bug = v; return nil },
		"-seed":     func(v string) (err error) { seed, err = strconv.ParseInt(v, 10, 64); return },
		"-n":        func(v string) (err error) { n, err = strconv.Atoi(v); return },
		"-scenario": func(v string) (err error) { scenario, err = strconv.Atoi(v); return },
	}); err != nil {
		return nil, err
	}
	var r *Regress
	var err error
	switch {
	case caseName != "":
		r, _, err = deriveDifftestRegress(caseName, bug)
	case scenario >= 0:
		r, _, err = deriveFaultcampRegress(seed, n, scenario)
	default:
		return nil, fmt.Errorf("runpack: regress command needs -case or -scenario")
	}
	if err != nil {
		return nil, err
	}
	return regressBytes(r)
}

func init() {
	executors[KindRegress] = executeRegress
}
