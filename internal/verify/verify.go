// Package verify is the Flux stand-in for TickTock-Go: a contract and
// invariant framework plus a bounded exhaustive checker.
//
// Flux proves refinement-typed contracts for all inputs using an SMT
// solver. Offline, in Go, we discharge the same ∀-obligations by exhaustive
// enumeration over bounded domains: every contract is checked against every
// combination of a scaled-down parameter space (all alignments, sizes and
// break placements that fit a small address window). Each registered Spec
// corresponds to one function-level proof obligation, mirroring Flux's
// modular, per-function checking — which is also what makes the paper's
// Figure 12 (per-function verification times) reproducible.
//
// The package provides three layers:
//
//   - Contract primitives (Requires, Ensures, Invariant violations) that
//     production code uses to fail closed at runtime,
//   - the Spec registry, recording every proof obligation with its
//     component and annotation size (feeding the Figure 10 table),
//   - the Checker, which runs specs, collects violations, and times each
//     obligation (feeding the Figure 12 table).
package verify

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ticktock/internal/metrics"
)

// Violation records a failed proof obligation: the function (spec) it
// belongs to, the clause that failed, and a human-readable counterexample.
type Violation struct {
	Spec   string
	Clause string
	Detail string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("verify: %s: %s violated: %s", v.Spec, v.Clause, v.Detail)
}

// T is the checking context passed to a Spec body. It collects violations
// rather than stopping at the first, so a check run reports every
// counterexample domain point (capped to keep reports readable).
type T struct {
	spec       string
	violations []*Violation
	// MaxViolations caps recorded counterexamples per spec.
	MaxViolations int
	stopped       bool
	states        uint64
	checked       uint64
}

// Enumerate records n domain points (states) visited by the bounded
// enumeration. Loop-heavy spec bodies call it once per point so the
// checker report can show states-enumerated and domain-coverage columns;
// bodies that never call it are counted as a single state.
func (t *T) Enumerate(n uint64) { t.states += n }

// States returns the domain points recorded so far.
func (t *T) States() uint64 { return t.states }

// Checked returns the contract clauses explicitly evaluated so far
// (every Assert and Failf call counts one). The checker additionally
// credits one implicit evaluation per enumerated state, since bodies in
// the Failf-on-violation idiom check their clauses without calling
// Assert; see runSpec.
func (t *T) Checked() uint64 { return t.checked }

// fail records a violation of the named clause.
func (t *T) fail(clause, format string, args ...any) {
	if t.stopped {
		return
	}
	t.violations = append(t.violations, &Violation{
		Spec:   t.spec,
		Clause: clause,
		Detail: fmt.Sprintf(format, args...),
	})
	if t.MaxViolations > 0 && len(t.violations) >= t.MaxViolations {
		t.stopped = true
	}
}

// Failf records a violation of the named clause.
func (t *T) Failf(clause, format string, args ...any) {
	t.checked++
	t.fail(clause, format, args...)
}

// Assert checks a postcondition/invariant clause.
func (t *T) Assert(ok bool, clause, format string, args ...any) {
	t.checked++
	if !ok {
		t.fail(clause, format, args...)
	}
}

// Stopped reports whether the violation cap was hit; spec bodies may use
// it to abandon expensive enumeration early.
func (t *T) Stopped() bool { return t.stopped }

// Violations returns the recorded counterexamples.
func (t *T) Violations() []*Violation { return t.violations }

// TrustKind classifies why a spec is trusted (unverified), mirroring the
// paper's accounting of #[trusted] functions in §5.
type TrustKind uint8

// Trust categories from Figure 10's discussion.
const (
	// Checked means the spec body actually verifies the obligation.
	Checked TrustKind = iota
	// TrustedLemma is a fact proven outside the checker (the paper
	// proves these in Lean; we prove them in Go unit tests).
	TrustedLemma
	// TrustedGhost is proof-only plumbing.
	TrustedGhost
	// TrustedOutOfScope is deliberately unverified (e.g. fault
	// formatting).
	TrustedOutOfScope
)

// Spec is one proof obligation: a named, component-scoped check body.
type Spec struct {
	// Component groups specs for the Figure 10 table: "kernel",
	// "arm-mpu", "riscv-mpu", "flux-std", "fluxarm".
	Component string
	// Name identifies the verified function, e.g.
	// "granular/allocate_app_memory/cortex-m".
	Name string
	// SpecLines approximates the annotation burden (lines of contract)
	// the obligation would cost in Flux.
	SpecLines int
	// Trust classifies the obligation.
	Trust TrustKind
	// Body runs the bounded check. Nil for trusted specs.
	Body func(t *T)
	// DomainSize declares the full bounded domain the body enumerates
	// (the denominator of the coverage column). 0 means unknown/N.A.
	DomainSize uint64
}

// Registry holds a set of proof obligations.
type Registry struct {
	specs []*Spec
	names map[string]bool // the names Add has registered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

// Add registers a spec. Duplicate names are rejected by panic: obligations
// are statically known, so a duplicate is a programming error.
func (r *Registry) Add(s *Spec) {
	if r.names[s.Name] {
		panic("verify: duplicate spec " + s.Name)
	}
	if s.Trust == Checked && s.Body == nil {
		panic("verify: checked spec without body: " + s.Name)
	}
	r.names[s.Name] = true
	r.specs = append(r.specs, s)
}

// Specs returns all registered specs.
func (r *Registry) Specs() []*Spec { return r.specs }

// Components returns the distinct component names in registration order.
func (r *Registry) Components() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range r.specs {
		if !seen[s.Component] {
			seen[s.Component] = true
			out = append(out, s.Component)
		}
	}
	return out
}

// Result is the outcome of checking one spec.
type Result struct {
	Spec       *Spec
	Elapsed    time.Duration
	Violations []*Violation
	// States is the number of domain points the body enumerated
	// (bodies that never call T.Enumerate count as one state).
	States uint64
	// Checked is the number of contract clauses evaluated.
	Checked uint64
}

// OK reports whether the obligation held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Coverage returns the fraction of the declared domain the check
// visited, or -1 when the spec declares no DomainSize.
func (r *Result) Coverage() float64 {
	if r.Spec.DomainSize == 0 {
		return -1
	}
	return float64(r.States) / float64(r.Spec.DomainSize)
}

// runSpec checks a single spec.
func runSpec(s *Spec) *Result {
	res := &Result{Spec: s}
	if s.Body != nil {
		t := &T{spec: s.Name, MaxViolations: 10}
		start := time.Now()
		s.Body(t)
		res.Elapsed = time.Since(start)
		res.Violations = t.Violations()
		if t.states == 0 {
			t.states = 1
		}
		// Bodies written in the Failf-on-violation idiom evaluate their
		// clauses at every enumerated state without calling Assert, so
		// each state counts as at least one contract evaluation.
		if t.checked < t.states {
			t.checked = t.states
		}
		res.States = t.states
		res.Checked = t.checked
	}
	return res
}

// RunOpts tunes a checker run.
type RunOpts struct {
	// Workers sizes the worker pool (<1 means sequential). Obligations
	// are independent, exactly as Flux checks functions modularly.
	Workers int
	// Metrics, when non-nil, receives the checker's observability
	// series after the run (see Report.Publish).
	Metrics *metrics.Registry
	// Progress, when non-nil, is called after spec completions with the
	// number done, the total, and the just-finished result. Calls are
	// serialized; done reaches total exactly once.
	Progress func(done, total int, last *Result)
	// ProgressEvery throttles Progress to every n completions (the
	// final completion always reports). 0 means every completion.
	ProgressEvery int
}

// Run checks every spec in the registry (trusted specs pass vacuously but
// still appear in the report, as they do in the paper's tables).
func (r *Registry) Run() *Report { return r.RunWith(RunOpts{}) }

// RunWith checks every spec under the given options: optional worker
// pool, periodic progress callback, and metrics publication. Results
// keep registration order regardless of completion order.
func (r *Registry) RunWith(o RunOpts) *Report {
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(r.specs) && len(r.specs) > 0 {
		workers = len(r.specs)
	}
	results := make([]*Result, len(r.specs))
	var mu sync.Mutex
	done := 0
	finish := func(i int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		done++
		if o.Progress != nil {
			every := o.ProgressEvery
			if every < 1 {
				every = 1
			}
			if done%every == 0 || done == len(r.specs) {
				o.Progress(done, len(r.specs), res)
			}
		}
	}
	if workers == 1 {
		for i, s := range r.specs {
			finish(i, runSpec(s))
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					finish(i, runSpec(r.specs[i]))
				}
			}()
		}
		for i := range r.specs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	rep := &Report{Results: results}
	rep.Publish(o.Metrics)
	return rep
}

// RunComponent checks only the specs of one component.
func (r *Registry) RunComponent(component string) *Report {
	sub := NewRegistry()
	for _, s := range r.specs {
		if s.Component == component {
			sub.specs = append(sub.specs, s)
		}
	}
	return sub.Run()
}

// Report aggregates check results and computes the Figure 12 statistics.
type Report struct {
	Results []*Result
}

// Failed returns the results with violations.
func (rep *Report) Failed() []*Result {
	var out []*Result
	for _, r := range rep.Results {
		if !r.OK() {
			out = append(out, r)
		}
	}
	return out
}

// OK reports whether every obligation held.
func (rep *Report) OK() bool { return len(rep.Failed()) == 0 }

// Stats summarizes per-function check times, the row shape of Figure 12.
type Stats struct {
	Fns    int
	Total  time.Duration
	Max    time.Duration
	Mean   time.Duration
	StdDev time.Duration
}

// Stats computes timing statistics across all results.
func (rep *Report) Stats() Stats {
	var s Stats
	s.Fns = len(rep.Results)
	if s.Fns == 0 {
		return s
	}
	for _, r := range rep.Results {
		s.Total += r.Elapsed
		if r.Elapsed > s.Max {
			s.Max = r.Elapsed
		}
	}
	s.Mean = s.Total / time.Duration(s.Fns)
	var varSum float64
	for _, r := range rep.Results {
		d := float64(r.Elapsed - s.Mean)
		varSum += d * d
	}
	s.StdDev = time.Duration(math.Sqrt(varSum / float64(s.Fns)))
	return s
}

// Slowest returns the n slowest results, for "over 90% of the time was
// spent checking allocate_app_mem_region"-style diagnostics.
func (rep *Report) Slowest(n int) []*Result {
	out := append([]*Result(nil), rep.Results...)
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// EffortRow is one row of the Figure 10 proof-effort table.
type EffortRow struct {
	Component    string
	Fns          int
	TrustedFns   int
	SpecLines    int
	TrustedSpecs int
}

// Effort tabulates registered obligations per component (Figure 10).
func (r *Registry) Effort() []EffortRow {
	idx := map[string]*EffortRow{}
	var order []string
	for _, s := range r.specs {
		row, ok := idx[s.Component]
		if !ok {
			row = &EffortRow{Component: s.Component}
			idx[s.Component] = row
			order = append(order, s.Component)
		}
		row.Fns++
		row.SpecLines += s.SpecLines
		if s.Trust != Checked {
			row.TrustedFns++
			row.TrustedSpecs += s.SpecLines
		}
	}
	out := make([]EffortRow, 0, len(order))
	for _, c := range order {
		out = append(out, *idx[c])
	}
	return out
}

// TotalStates sums the domain points enumerated across all results.
func (rep *Report) TotalStates() uint64 {
	var n uint64
	for _, r := range rep.Results {
		n += r.States
	}
	return n
}

// TotalChecked sums the contract clauses evaluated across all results.
func (rep *Report) TotalChecked() uint64 {
	var n uint64
	for _, r := range rep.Results {
		n += r.Checked
	}
	return n
}

// Coverage returns the overall fraction of declared domains visited —
// enumerated states over the summed DomainSize of the specs that
// declare one — or -1 when no spec declares a domain.
func (rep *Report) Coverage() float64 {
	var states, domain uint64
	for _, r := range rep.Results {
		if r.Spec.DomainSize > 0 {
			states += r.States
			domain += r.Spec.DomainSize
		}
	}
	if domain == 0 {
		return -1
	}
	return float64(states) / float64(domain)
}

// Publish copies the report into a metrics registry as the checker's
// observability series: per-component spec outcomes, states enumerated,
// contracts checked/violated, and a per-spec wall-time histogram in
// microseconds. Nil registry is a no-op.
func (rep *Report) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, res := range rep.Results {
		comp := metrics.L("component", res.Spec.Component)
		outcome := "pass"
		switch {
		case res.Spec.Trust != Checked:
			outcome = "trusted"
		case !res.OK():
			outcome = "fail"
		}
		reg.Counter("verify_specs_total", comp, metrics.L("result", outcome)).Inc()
		reg.Counter("verify_states_total", comp).Add(res.States)
		reg.Counter("verify_contracts_checked_total", comp).Add(res.Checked)
		reg.Counter("verify_contract_violations_total", comp).Add(uint64(len(res.Violations)))
		if res.Spec.Body != nil {
			reg.Histogram("verify_spec_time_us", comp).Observe(uint64(res.Elapsed.Microseconds()))
		}
	}
}
