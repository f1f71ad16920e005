// Package faultinject implements the deterministic fault-injection
// campaign: seed-reproducible single-event upsets and interface
// corruptions driven into both kernel ports (ARM TickTock/Tock and the
// RISC-V port), with every injected fault classified against an
// uninjected baseline run and the isolation contracts re-checked after
// each injected run.
//
// The injector set models the faults §2's threat discussion worries
// about but the paper's verification cannot rule out — hardware and
// boundary corruption rather than kernel logic bugs:
//
//   - KindMPUFlip: a single-event upset in the protection hardware's
//     register file (MPU RBAR/RASR on ARM, pmpcfg/pmpaddr on RISC-V),
//     bypassing the write-path validation.
//   - KindTimerJitter / KindTimerDrop: reference-clock jitter and a
//     dropped tick on the scheduling timer (SysTick / CLINT).
//   - KindSyscallArg / KindSyscallRet: a flipped stacked register on the
//     trap path, corrupting syscall arguments before dispatch or the
//     return value before it lands back in user state.
//   - KindStackSmash: the process stack pointer forced to the bottom of
//     the app's memory block — the classic runaway-stack state.
//   - KindBusFault: a transient memory-bus read error on the nth
//     protection-checked load.
//
// Every scenario is a pure function of the campaign seed and its index,
// so the same Config reproduces a byte-identical Report.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"

	"ticktock/internal/flightrec"
	"ticktock/internal/metrics"
)

// Kind enumerates the composable injectors.
type Kind uint8

// Injector kinds.
const (
	KindMPUFlip Kind = iota
	KindTimerJitter
	KindTimerDrop
	KindSyscallArg
	KindSyscallRet
	KindStackSmash
	KindBusFault

	numKinds = int(KindBusFault) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMPUFlip:
		return "mpu-flip"
	case KindTimerJitter:
		return "timer-jitter"
	case KindTimerDrop:
		return "timer-drop"
	case KindSyscallArg:
		return "syscall-arg"
	case KindSyscallRet:
		return "syscall-ret"
	case KindStackSmash:
		return "stack-smash"
	case KindBusFault:
		return "bus-fault"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Outcome classifies one injected fault on one port, judged against the
// scenario's uninjected baseline run.
type Outcome uint8

// Outcomes.
const (
	// OutcomeSkipped: the injection never fired (the run ended before
	// its target quantum or nth event was reached).
	OutcomeSkipped Outcome = iota
	// OutcomeMasked: the fault fired but the run was byte-identical to
	// the baseline — absorbed by redundancy (e.g. the kernel's next MPU
	// reconfiguration healed a flipped region before the app touched it).
	OutcomeMasked
	// OutcomeBenign: the fault fired and perturbed the run (output or
	// final states differ) without tripping any supervision response —
	// and, per the isolation sweep, without breaking isolation.
	OutcomeBenign
	// OutcomeDetected: the kernel's defences responded — a syscall error
	// return, a process fault, a watchdog fire, a policy restart or a
	// quarantine that the baseline run did not have.
	OutcomeDetected

	numOutcomes = int(OutcomeDetected) + 1
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeSkipped:
		return "skipped"
	case OutcomeMasked:
		return "masked"
	case OutcomeBenign:
		return "benign"
	case OutcomeDetected:
		return "detected"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Config tunes a campaign. The zero value runs DefaultScenarios
// scenarios from seed 0.
type Config struct {
	// Seed is the campaign master seed; scenario i derives its own
	// stream from Seed and i alone.
	Seed int64
	// N is the scenario count (0 means DefaultScenarios).
	N int
	// Workers sizes the supervisor's shard pool (0 means one worker per
	// CPU, campaign.Config's default).
	Workers int
	// Record attaches a flight recording to every PortResult whose
	// isolation sweep found violations, so the pre-violation machine
	// state can be replayed (cmd/faultcamp -replay). Injected runs
	// carry no recorder: the violating port's injected run is re-run
	// under a fresh recorder and no tracer, which gives the recording
	// RecordRuns(sc, cfg, true) returns for that port. A clean campaign
	// records nothing, and classifications are the same either way.
	Record bool
	// FastCore runs every kernel on the block-cache fast core instead
	// of the byte-scan oracle core: baselines, injected runs and the
	// re-runs Record makes. The campaign's mid-run register corruption
	// (MPU/PMP FlipBits at quantum boundaries) is exactly the
	// invalidation stressor for the cache, and classifications must be
	// byte-identical either way. Baselines are shared within a
	// campaign, whose Config is fixed, so a table never mixes cores.
	FastCore bool
	// Chaos injects failures into the *campaign machinery itself* under
	// RunSupervised: a spec like "wedge:3,panic:5,flaky:7" wedges
	// scenario 3 until its timeout, panics inside scenario 5 and makes
	// scenario 7 fail its first attempt. It exercises the supervisor's
	// timeout, crash-recovery, retry and quarantine paths end to end;
	// Run ignores it. See ParseChaos.
	Chaos string
}

// DefaultScenarios is the campaign size the acceptance bar asks for.
const DefaultScenarios = 500

// The supervision settings of every campaign kernel, on both ports: a
// faulting process restarts at most MaxRestarts times, restart n waits
// BackoffBase << (n-1) cycles, and the watchdog faults a process after
// Watchdog consecutive full-timeslice preemptions without a syscall.
const (
	MaxRestarts = 2
	Watchdog    = 3
	BackoffBase = 512
)

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = DefaultScenarios
	}
	return c
}

// sharedApps are the release tests built for both ports — the campaign's
// cross-port workload set (apps.All() names ∩ rvkernel.ReleaseSubset()).
var sharedApps = []string{
	"c_hello", "blink", "malloc_test01", "timer_test",
	"grant_test", "stack_growth", "whileone", "exit_test",
}

// Scenario is one fully-determined injection experiment: every field is
// derived from the campaign seed and the scenario index, so both ports
// (and any re-run) replay exactly the same fault.
type Scenario struct {
	Index int
	App   string
	Kind  Kind

	// Quantum is the scheduling-quantum boundary at which boundary
	// injections (MPU flip, timer faults, stack smash) fire.
	Quantum int
	// Nth selects the nth event for hook injections (nth syscall for
	// arg/ret corruption, nth checked load for the bus fault).
	Nth int

	// Entry picks the MPU region / PMP entry (mod the hardware count);
	// BitAddr and BitAttr pick the flipped bit in the address-style and
	// attribute-style register; AttrReg selects which of the two
	// registers the upset strikes (false = address register).
	Entry   int
	BitAddr uint
	BitAttr uint
	AttrReg bool

	// XorVal and ArgIdx parameterize syscall corruption.
	XorVal uint32
	ArgIdx int

	// JitterDelta is the timer perturbation in cycles.
	JitterDelta int64

	// Quarantine selects PolicyQuarantine over PolicyRestart.
	Quarantine bool
	// Monolithic selects the Tock baseline flavour on the ARM port.
	Monolithic bool
	// Chip indexes riscv.Chips for the RISC-V port.
	Chip int
}

// Label names the scenario for tables and difftest rows.
func (s Scenario) Label() string {
	return fmt.Sprintf("sc%04d/%s/%s", s.Index, s.Kind, s.App)
}

// GenScenarios derives the campaign's scenario list. Scenario i depends
// only on cfg.Seed and i — never on execution order — so a campaign is
// reproducible under any worker count.
func GenScenarios(cfg Config) []Scenario {
	cfg = cfg.withDefaults()
	out := make([]Scenario, cfg.N)
	for i := range out {
		out[i] = genScenario(cfg.Seed, i)
	}
	return out
}

// ScenarioAt derives scenario i of the campaign cfg describes without
// deriving the others: GenScenarios(cfg)[i], or an error when i is
// outside [0, N).
func ScenarioAt(cfg Config, i int) (Scenario, error) {
	cfg = cfg.withDefaults()
	if i < 0 || i >= cfg.N {
		return Scenario{}, fmt.Errorf("faultinject: scenario %d out of range [0,%d)", i, cfg.N)
	}
	return genScenario(cfg.Seed, i), nil
}

// genScenario derives scenario i of the campaign seeded seed from its
// own source, so any one scenario can be derived without the others.
func genScenario(seed int64, i int) Scenario {
	rng := rand.New(rand.NewSource(seed + int64(i)*1000003))
	sc := Scenario{
		Index:       i,
		App:         sharedApps[rng.Intn(len(sharedApps))],
		Kind:        Kind(rng.Intn(numKinds)),
		Quantum:     1 + rng.Intn(15),
		Nth:         1 + rng.Intn(10),
		Entry:       rng.Intn(16),
		BitAddr:     uint(rng.Intn(32)),
		BitAttr:     uint(rng.Intn(32)),
		AttrReg:     rng.Intn(2) == 1,
		XorVal:      rng.Uint32(),
		ArgIdx:      rng.Intn(4),
		JitterDelta: int64(rng.Intn(10000) - 5000),
		Quarantine:  rng.Intn(2) == 1,
		Monolithic:  rng.Intn(2) == 1,
		Chip:        rng.Intn(3),
	}
	if sc.XorVal == 0 {
		sc.XorVal = 1
	}
	if sc.JitterDelta == 0 {
		sc.JitterDelta = 1
	}
	return sc
}

// runSignature is what classification compares between the baseline and
// the injected run of one scenario on one port: the supervision
// counters (any delta means the kernel noticed), and the externally
// visible result (console output and final process states).
type runSignature struct {
	Faults        uint64
	WatchdogFires uint64
	Quarantines   uint64
	SyscallErrors uint64
	Restarts      uint64
	Output        string
	States        string
}

// countersDiffer reports whether any supervision counter moved relative
// to base, with a short description of which.
func (s runSignature) countersDiffer(base runSignature) (bool, string) {
	var parts []string
	diff := func(name string, got, want uint64) {
		if got != want {
			parts = append(parts, fmt.Sprintf("%s %d→%d", name, want, got))
		}
	}
	diff("faults", s.Faults, base.Faults)
	diff("watchdog", s.WatchdogFires, base.WatchdogFires)
	diff("quarantines", s.Quarantines, base.Quarantines)
	diff("syscall-errors", s.SyscallErrors, base.SyscallErrors)
	diff("restarts", s.Restarts, base.Restarts)
	return len(parts) > 0, strings.Join(parts, " ")
}

// classify applies the campaign taxonomy.
func classify(applied bool, base, inj runSignature) (Outcome, string) {
	if !applied {
		return OutcomeSkipped, ""
	}
	if differ, detail := inj.countersDiffer(base); differ {
		return OutcomeDetected, detail
	}
	if inj.Output == base.Output && inj.States == base.States {
		return OutcomeMasked, ""
	}
	return OutcomeBenign, "diverged without supervision response"
}

// PortResult is one scenario's classified outcome on one port.
type PortResult struct {
	// Port labels the run: "arm-ticktock", "arm-tock" or "rv32-<chip>".
	Port    string
	Outcome Outcome
	// Applied reports whether the injection actually fired.
	Applied bool
	// Detail describes what the supervision saw (counter deltas) or why
	// the run merely diverged.
	Detail string
	// QuarantineDelta is the injected run's quarantine count minus the
	// baseline's — the graceful-degradation tally.
	QuarantineDelta uint64
	// Violations lists isolation-contract failures found by the
	// post-run sweep of the injected run. The campaign's hard gate is
	// that this is empty for every scenario.
	Violations []string
	// Err records an infrastructure failure (the run could not be
	// completed); stored as a string to keep the report comparable.
	Err string
	// Replay holds the injected run's flight recording when
	// Config.Record is set and the isolation sweep found violations —
	// the time-travel handle for inspecting pre-violation state. It is
	// excluded from the supervised campaign's journal payloads (the
	// journal keeps the classified outcome, not the machine recording).
	Replay *flightrec.Recording `json:"-"`
}

// Result pairs the two ports' outcomes for one scenario.
type Result struct {
	Scenario Scenario
	ARM      PortResult
	RV       PortResult
	// Sup marks a scenario the supervised campaign never completed:
	// "quarantined (...)" for poison scenarios that exhausted their
	// retry budget, "pending (interrupted)" for ones an interrupted
	// campaign has not reached yet. Such results carry no port outcomes
	// and are excluded from the port tallies.
	Sup string `json:",omitempty"`
}

// Agree reports whether both ports classified the fault identically.
func (r Result) Agree() bool { return r.ARM.Outcome == r.RV.Outcome }

// OutcomeCounts tallies classifications for one (port, kind) cell.
// Injected counts only faults that actually fired, so
// Injected == Detected + Masked + Benign.
type OutcomeCounts struct {
	Injected, Detected, Masked, Benign, Skipped uint64
}

// add books one classified outcome.
func (c *OutcomeCounts) add(o Outcome) {
	switch o {
	case OutcomeSkipped:
		c.Skipped++
		return
	case OutcomeDetected:
		c.Detected++
	case OutcomeMasked:
		c.Masked++
	case OutcomeBenign:
		c.Benign++
	}
	c.Injected++
}

// Tally aggregates one port's campaign.
type Tally struct {
	Port        string
	PerKind     [numKinds]OutcomeCounts
	Quarantined uint64
	Errors      uint64
}

// Total sums the per-kind cells.
func (t Tally) Total() OutcomeCounts {
	var sum OutcomeCounts
	for _, c := range t.PerKind {
		sum.Injected += c.Injected
		sum.Detected += c.Detected
		sum.Masked += c.Masked
		sum.Benign += c.Benign
		sum.Skipped += c.Skipped
	}
	return sum
}

// Supervision aggregates what the campaign supervisor had to do:
// attempt failures by class, retries spent, and the scenarios it gave
// up on. Every terminal outcome is booked by campaign.Stats.Book, so it
// is deterministic at any worker count; invocation-local effects
// (steals, resume count) live in campaign.Stats and go to metrics only.
type Supervision struct {
	// Timeouts, Crashes and Errors count failed *attempts* by class
	// (one scenario retried twice books two failures).
	Timeouts uint64
	Crashes  uint64
	Errors   uint64
	// Retries counts re-run attempts granted after a failure.
	Retries uint64
	// Pending counts scenarios an interrupted campaign has not reached.
	Pending uint64
	// Quarantined lists the poison scenarios, sorted by label.
	Quarantined []QuarantinedScenario
}

// QuarantinedScenario is one scenario that exhausted its retry budget.
type QuarantinedScenario struct {
	Label    string
	Failure  string // campaign.FailTimeout, FailCrashed or FailError
	Attempts int
}

// trivial reports whether the supervisor had nothing to report — the
// condition under which the report renders byte-identically under any
// supervision settings.
func (s *Supervision) trivial() bool {
	return s.Timeouts == 0 && s.Crashes == 0 && s.Errors == 0 &&
		s.Retries == 0 && s.Pending == 0 && len(s.Quarantined) == 0
}

// Report is the deterministic campaign result: same Config in, same
// bytes out.
type Report struct {
	Config  Config
	Results []Result
	// ARM and RV aggregate the two ports. The ARM tally spans both
	// flavours; per-scenario rows carry the exact flavour label.
	ARM Tally
	RV  Tally
	// Violations flattens every isolation-contract failure across the
	// campaign (the acceptance gate requires it empty).
	Violations []string
	// Divergent counts scenarios the two ports classified differently.
	Divergent int
	// Sup carries the campaign's supervision summary; nil when the
	// supervisor had nothing to do, so clean campaigns render
	// byte-identically under any supervision settings.
	Sup *Supervision
}

// tally builds the aggregate views from the per-scenario results.
func (r *Report) tally() {
	r.ARM = Tally{Port: "arm"}
	r.RV = Tally{Port: "rv32"}
	r.Violations = nil
	r.Divergent = 0
	for _, res := range r.Results {
		if res.Sup != "" {
			// Quarantined or pending: no port outcomes to book.
			continue
		}
		k := res.Scenario.Kind
		r.ARM.PerKind[k].add(res.ARM.Outcome)
		r.RV.PerKind[k].add(res.RV.Outcome)
		r.ARM.Quarantined += res.ARM.QuarantineDelta
		r.RV.Quarantined += res.RV.QuarantineDelta
		if res.ARM.Err != "" {
			r.ARM.Errors++
		}
		if res.RV.Err != "" {
			r.RV.Errors++
		}
		for _, v := range res.ARM.Violations {
			r.Violations = append(r.Violations, res.Scenario.Label()+": "+v)
		}
		for _, v := range res.RV.Violations {
			r.Violations = append(r.Violations, res.Scenario.Label()+": "+v)
		}
		if !res.Agree() {
			r.Divergent++
		}
	}
}

// Text renders the campaign as a deterministic table.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-injection campaign: %d scenarios, seed %d\n\n", len(r.Results), r.Config.Seed)
	for _, t := range []Tally{r.ARM, r.RV} {
		fmt.Fprintf(&b, "%-6s %-14s %9s %9s %7s %7s %8s\n",
			t.Port, "kind", "injected", "detected", "masked", "benign", "skipped")
		for k := 0; k < numKinds; k++ {
			c := t.PerKind[k]
			fmt.Fprintf(&b, "%-6s %-14s %9d %9d %7d %7d %8d\n",
				"", Kind(k), c.Injected, c.Detected, c.Masked, c.Benign, c.Skipped)
		}
		c := t.Total()
		fmt.Fprintf(&b, "%-6s %-14s %9d %9d %7d %7d %8d   quarantined=%d errors=%d\n\n",
			"", "total", c.Injected, c.Detected, c.Masked, c.Benign, c.Skipped, t.Quarantined, t.Errors)
	}
	completed := len(r.Results)
	if r.Sup != nil {
		completed -= len(r.Sup.Quarantined) + int(r.Sup.Pending)
	}
	fmt.Fprintf(&b, "cross-port: %d/%d scenarios classified identically, %d divergent\n",
		completed-r.Divergent, completed, r.Divergent)
	fmt.Fprintf(&b, "isolation violations: %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	if r.Sup != nil {
		fmt.Fprintf(&b, "supervision: timeouts=%d crashes=%d errors=%d retries=%d quarantined=%d pending=%d\n",
			r.Sup.Timeouts, r.Sup.Crashes, r.Sup.Errors, r.Sup.Retries, len(r.Sup.Quarantined), r.Sup.Pending)
		for _, q := range r.Sup.Quarantined {
			fmt.Fprintf(&b, "  QUARANTINED %s: %s after %d attempts\n", q.Label, q.Failure, q.Attempts)
		}
	}
	return b.String()
}

// Empty reports whether the campaign produced no evidence at all: no
// scenarios, or every injection skipped on both ports with nothing
// else to show (no errors, no violations, no supervision events). An
// empty campaign passing is vacuous, so cmd/faultcamp exits distinctly
// on it.
func (r *Report) Empty() bool {
	if len(r.Results) == 0 {
		return true
	}
	if r.Sup != nil && !r.Sup.trivial() {
		return false
	}
	arm, rv := r.ARM.Total(), r.RV.Total()
	return arm.Injected == 0 && rv.Injected == 0 &&
		r.ARM.Errors == 0 && r.RV.Errors == 0 && len(r.Violations) == 0
}

// Publish books the campaign tallies into a metrics registry as the
// fault_* series, labelled by port and injector kind. The counts mirror
// the Report exactly, so the three-way accounting test can cross-check
// report, registry and the parsed Prometheus exposition.
func (r *Report) Publish(reg *metrics.Registry) {
	for _, t := range []Tally{r.ARM, r.RV} {
		pl := metrics.L("port", t.Port)
		for k := 0; k < numKinds; k++ {
			c := t.PerKind[k]
			kl := metrics.L("kind", Kind(k).String())
			reg.Counter("fault_injected_total", pl, kl).Add(c.Injected)
			reg.Counter("fault_detected_total", pl, kl).Add(c.Detected)
			reg.Counter("fault_masked_total", pl, kl).Add(c.Masked)
			reg.Counter("fault_benign_total", pl, kl).Add(c.Benign)
			reg.Counter("fault_skipped_total", pl, kl).Add(c.Skipped)
		}
		reg.Counter("fault_quarantined_total", pl).Add(t.Quarantined)
	}
}
