package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/rvkernel"
	"ticktock/internal/trace"
	"ticktock/internal/verify"
)

// errInjectedBus is the transient bus error delivered by KindBusFault on
// the RISC-V port (the ARM port reports a physmem.BusError carrying the
// faulting address, matching what its fault status register latches).
var errInjectedBus = errors.New("faultinject: transient bus read error")

// rasrBits are the architecturally meaningful RASR bits an upset can
// strike: ENABLE, the SIZE field, the SRD byte, the AP field and XN.
var rasrBits = []uint{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 28}

// armCases and rvApps index the ARM release tests and the RISC-V release
// subset by name, built once per process and shared by every run: the
// values are immutable, since each app's Build makes a fresh assembler.
var (
	armCases = sync.OnceValue(func() map[string]apps.TestCase {
		out := make(map[string]apps.TestCase)
		for _, tc := range apps.All() {
			out[tc.Name] = tc
		}
		return out
	})
	rvApps = sync.OnceValue(func() map[string]rvkernel.App {
		out := make(map[string]rvkernel.App)
		for _, app := range rvkernel.ReleaseSubset() {
			out[app.Name] = app
		}
		return out
	})
)

// Run executes the campaign under campaign.Supervise with no timeout,
// retries or journal, on cfg.Workers workers. Scenarios are independent
// kernel pairs, so they parallelize freely; results land by index, so
// the report is identical under any worker count. Chaos is ignored: it
// exercises supervision settings a plain run does not have (see
// RunSupervised). A scenario that panics is quarantined into the
// report's supervision section instead of crashing the process.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	run, _ := campaign.Supervise(campaign.Config{Workers: cfg.Workers}, campaignRunner(cfg).units(nil, nil)) // no journal: cannot fail
	return ReportFromRun(cfg, run)
}

// RunScenario executes one scenario on both ports: an uninjected
// baseline and an injected run each, classifying the injected run
// against its baseline, or answering it from the baseline when the
// baseline's counts show the injection cannot fire. It shares no
// baseline with any other call; only the units of one campaign do (see
// campaignRunner).
func RunScenario(sc Scenario, cfg Config) Result {
	return (&runner{cfg: cfg.withDefaults()}).scenario(sc, nil)
}

// runner runs the scenarios of one campaign under one Config. Its
// baseline tables live and die with it; with nil tables every baseline
// runs afresh on its whole scenario.
type runner struct {
	cfg     Config
	arm, rv *baselineTable
}

// campaignRunner returns a runner with its own, empty baseline tables,
// for the units of one campaign Source. Stealing workers share them;
// a resumed run builds a new Source and so new tables, and no table
// outlives its campaign, so nothing a scenario reports depends on what
// ran before it in the process.
func campaignRunner(cfg Config) *runner {
	return &runner{cfg: cfg, arm: &baselineTable{}, rv: &baselineTable{}}
}

// scenario runs sc on both ports with a kernel tracer attached to the
// *injected* runs — the hook the live telemetry plane uses to nest a
// scenario's kernel events under its attempt span in the fleet
// timeline. The tracer observes the cycle meter without charging it, so
// a traced Result is identical to an untraced one.
func (r *runner) scenario(sc Scenario, tr *trace.Tracer) Result {
	return Result{
		Scenario: sc,
		ARM:      armPort.result(sc, r.cfg, r.arm, tr),
		RV:       rvPort.result(sc, r.cfg, r.rv, tr),
	}
}

// RecordRuns re-runs one scenario on both ports under the flight
// recorder, regardless of outcome, with or without the injection armed,
// and returns the two recordings. The runs are deterministic, so
// replaying an injected recording reproduces the injected faults
// exactly as the campaign saw them — the injection comes back from the
// recorded state, it is never re-rolled. The uninjected recording is
// the clean twin a campaign violation is bisected against (runpack's
// auto-distillation).
//
// The contract is both-or-neither: a caller never receives one port's
// recording alongside an error for the other (a half pair would seal
// runpacks whose replay members silently cover only one port). Both
// drivers always run; their failures are joined.
func RecordRuns(sc Scenario, cfg Config, inject bool) (arm, rv *flightrec.Recording, err error) {
	cfg = cfg.withDefaults()
	arm, armErr := armPort.record(sc, cfg, inject)
	rv, rvErr := rvPort.record(sc, cfg, inject)
	if armErr != nil || rvErr != nil {
		return nil, nil, errors.Join(armErr, rvErr)
	}
	return arm, rv, nil
}

// port is one kernel port's side of a scenario: its label, its driver
// (armRun or rvRun) and the projection of a scenario onto what its
// clean baseline reads.
type port struct {
	name    func(Scenario) string
	run     func(sc Scenario, cfg Config, inject bool, obs kcore.Observe) (portRun, error)
	baseKey func(Scenario) Scenario
}

// portRun is one completed run of a scenario on one port.
type portRun struct {
	sig     runSignature
	applied bool  // the injection fired (injected runs only)
	seen    reach // how often the run passed each injection point
	// sweep re-checks the isolation contracts on the run's final
	// kernel state. It is left to the caller, so that only the runs
	// whose findings a result reports pay for it.
	sweep func() []string
}

var (
	armPort = port{name: armPortName, run: armRun, baseKey: armBaseKey}
	rvPort  = port{name: rvPortName, run: rvRun, baseKey: rvBaseKey}
)

// result classifies sc's injected run on the port, which carries tr,
// against the clean baseline that bases holds for sc's key (run on sc
// itself when bases is nil). An injected run whose injection the
// baseline's counts show cannot fire is bit for bit its baseline, so it
// is not run: the port is skipped, with the baseline's isolation sweep
// as its violations. When cfg.Record is set and the sweep finds
// violations, the injected run is repeated under a fresh flight
// recorder and no tracer, and the recording is attached as Replay: it
// is the recording RecordRuns(sc, cfg, true) returns for the port,
// whatever tracer the campaign attached.
func (p port) result(sc Scenario, cfg Config, bases *baselineTable, tr *trace.Tracer) PortResult {
	name := p.name(sc)
	base := bases.get(sc, p.baseKey, func(k Scenario, shared bool) baseline {
		r, err := p.run(k, cfg, false, kcore.Observe{})
		if err != nil {
			return baseline{err: err}
		}
		b := baseline{sig: r.sig, seen: r.seen}
		// A shared baseline answers every scenario of its key, so it
		// always sweeps; an unshared one sweeps only to answer its own.
		if shared || !r.seen.fires(sc) {
			b.violations = r.sweep()
		}
		return b
	})
	if base.err != nil {
		return PortResult{Port: name, Err: base.err.Error()}
	}
	pr := PortResult{Port: name, Violations: base.violations}
	if base.seen.fires(sc) {
		inj, err := p.run(sc, cfg, true, kcore.Observe{Trace: tr})
		if err != nil {
			return PortResult{Port: name, Err: err.Error()}
		}
		pr.Applied, pr.Violations = inj.applied, inj.sweep()
		pr.Outcome, pr.Detail = classify(inj.applied, base.sig, inj.sig)
		if inj.sig.Quarantines > base.sig.Quarantines {
			pr.QuarantineDelta = inj.sig.Quarantines - base.sig.Quarantines
		}
	}
	if cfg.Record && len(pr.Violations) > 0 {
		// The injected run, or the baseline it equals, just completed
		// and is deterministic, so the re-run fails only if the kernel
		// is not; report that, never hide it.
		var err error
		if pr.Replay, err = p.record(sc, cfg, true); err != nil {
			pr.Err = err.Error()
		}
	}
	return pr
}

// record runs sc once on the port under a fresh flight recorder, with
// or without the injection armed, and returns the recording.
func (p port) record(sc Scenario, cfg Config, inject bool) (*flightrec.Recording, error) {
	rec := flightrec.NewRecorder(p.name(sc))
	if _, err := p.run(sc, cfg, inject, kcore.Observe{FlightRec: rec}); err != nil {
		return nil, fmt.Errorf("faultinject: recording %s: %w", p.name(sc), err)
	}
	return rec.Finish(), nil
}

// portKernel is what a scenario run needs of either port's kernel; both
// get it from the shared kernel core.
type portKernel interface {
	RunOnce() (bool, error)
	Alive() bool
	Counters() kcore.Counters
	Records() []*kcore.Process
}

// drive runs k for up to quanta scheduling quanta while any process is
// alive, counting the iterations it enters into r.seen and firing the
// boundary injection at the scenario's quantum when inject is set, and
// records the run signature in r.
func drive(k portKernel, sc Scenario, inject bool, quanta int, boundary func() bool, r *portRun) error {
	for q := 0; q < quanta && k.Alive(); q++ {
		r.seen.quanta++
		if inject && q == sc.Quantum && boundary() {
			r.applied = true
		}
		ran, err := k.RunOnce()
		if err != nil {
			return err
		}
		if !ran {
			break
		}
	}
	r.sig = signature(k)
	return nil
}

// installHooks installs the kernel's three injection points on either
// port. Every hook counts its calls into r.seen; with inject set, the
// scenario's own hook fires on the call its count names and sets
// r.applied: an upset (flip) at the start of the sc.Quantum-th user
// quantum — after the kernel programmed the protection unit, while user
// code owns the pipeline, so the kernel's per-switch reconfiguration
// bounds the exposure to one quantum — or corruption of the sc.Nth
// syscall's arguments or return value.
func installHooks[P any, C kcore.Class](sc Scenario, inject bool, h *kcore.FaultHooks[P, C], r *portRun, flip func()) {
	fire := func(k Kind, n, target int) bool {
		if inject && sc.Kind == k && n == target {
			r.applied = true
			return true
		}
		return false
	}
	h.QuantumStart = func(P) {
		if r.seen.quantumStarts++; fire(KindMPUFlip, r.seen.quantumStarts, sc.Quantum) {
			flip()
		}
	}
	h.SyscallArgs = func(_ P, _ C, args [4]uint32) [4]uint32 {
		if r.seen.syscallArgs++; fire(KindSyscallArg, r.seen.syscallArgs, sc.Nth) {
			args[sc.ArgIdx] ^= sc.XorVal
		}
		return args
	}
	h.SyscallRet = func(_ P, _ C, ret uint32) uint32 {
		if r.seen.syscallRets++; fire(KindSyscallRet, r.seen.syscallRets, sc.Nth) {
			ret ^= sc.XorVal
		}
		return ret
	}
}

// loadHook is the machine's LoadFault hook: it counts protection-checked
// loads into r.seen and, for an injected bus fault, fails the first
// with fail(addr). The release apps perform few data loads, so "nth
// load" would usually never be reached; load-free programs still
// classify as skipped.
func loadHook(sc Scenario, inject bool, r *portRun, fail func(addr uint32) error) func(uint32) error {
	return func(addr uint32) error {
		if r.seen.loads++; inject && sc.Kind == KindBusFault && r.seen.loads == 1 {
			r.applied = true
			return fail(addr)
		}
		return nil
	}
}

// signature captures the run's supervision counters, console output
// and final states.
func signature(k portKernel) runSignature {
	var out, states strings.Builder
	var restarts uint64
	for _, p := range k.Records() {
		fmt.Fprintf(&out, "[%s] %s", p.Name, p.Output())
		fmt.Fprintf(&states, "%s=%s ", p.Name, p.State)
		restarts += uint64(p.Restarts)
	}
	c := k.Counters()
	return runSignature{
		Faults:        c.Faults,
		WatchdogFires: c.WatchdogFires,
		Quarantines:   c.Quarantines,
		SyscallErrors: c.SyscallErrors,
		Restarts:      restarts,
		Output:        out.String(),
		States:        states.String(),
	}
}

// --- ARM port driver ---

// armPortName labels the ARM port by the scenario's flavour.
func armPortName(sc Scenario) string {
	if sc.Monolithic {
		return "arm-tock"
	}
	return "arm-ticktock"
}

// armRun executes the scenario's test case once on the ARM port with
// obs attached, optionally with the scenario's injection armed. Hook
// injections (syscall corruption, bus faults) arm before boot and fire
// on their nth event; boundary injections fire at the scenario's
// scheduling quantum.
func armRun(sc Scenario, cfg Config, inject bool, obs kcore.Observe) (portRun, error) {
	tc, ok := armCases()[sc.App]
	if !ok {
		return portRun{}, fmt.Errorf("faultinject: no ARM case %q", sc.App)
	}
	policy := kernel.PolicyRestart
	if sc.Quarantine {
		policy = kernel.PolicyQuarantine
	}
	fl := kernel.FlavourTickTock
	if sc.Monolithic {
		fl = kernel.FlavourTock
	}
	opts := kernel.Options{
		Flavour:     fl,
		FaultPolicy: policy,
		MaxRestarts: MaxRestarts,
		Watchdog:    Watchdog,
		BackoffBase: BackoffBase,
		FastCore:    cfg.FastCore,
		Observe:     obs,
	}
	var r portRun
	var machine *armv7m.Machine
	installHooks(sc, inject, &opts.Hooks, &r, func() {
		var rbarXor, rasrXor uint32
		if sc.AttrReg {
			rasrXor = 1 << rasrBits[sc.BitAttr%uint(len(rasrBits))]
		} else {
			// RBAR address bits [31:5]; the low bits are
			// region/valid fields the model stores separately.
			rbarXor = 1 << (5 + sc.BitAddr%27)
		}
		machine.MPU.FlipBits(sc.Entry%armv7m.NumRegions, rbarXor, rasrXor)
	})
	k, err := kernel.New(opts)
	if err != nil {
		return portRun{}, err
	}
	machine = k.Board.Machine
	machine.LoadFault = loadHook(sc, inject, &r, func(addr uint32) error { return &physmem.BusError{Addr: addr} })
	for _, app := range tc.Apps {
		if _, err := k.LoadProcess(app); err != nil {
			return portRun{}, err
		}
	}
	quanta := tc.Quanta
	if quanta == 0 {
		quanta = difftest.DefaultQuanta
	}
	if err := drive(k, sc, inject, quanta, func() bool { return armBoundaryInject(sc, k) }, &r); err != nil {
		return portRun{}, err
	}
	r.sweep = func() []string { return armIsolation(k, !sc.Monolithic) }
	return r, nil
}

// armBoundaryInject applies a quantum-boundary injection, reporting
// whether it fired.
func armBoundaryInject(sc Scenario, k *kernel.Kernel) bool {
	m := k.Board.Machine
	switch sc.Kind {
	case KindTimerJitter:
		m.Tick.Jitter(sc.JitterDelta)
		return true
	case KindTimerDrop:
		m.Tick.DropNext()
		return true
	case KindStackSmash:
		for _, p := range k.Procs {
			if p.Alive() {
				p.PSP = p.MM.Layout().MemoryStart + 4
				return true
			}
		}
	}
	return false
}

// armIsolation re-checks the isolation contracts after a run: under
// every process's MPU configuration, kernel data must stay
// user-inaccessible, and — on the granular (TickTock) flavour, whose
// allocator the paper verifies — so must every process's grant region.
// The monolithic baseline legitimately rounds its accessible span past
// the app break (the §3.2 disagreement), so the grant clause is only a
// contract of the granular flavour. Each protected span is checked in
// full through the interval access map — no byte of kernel RAM or of any
// grant region may be user-accessible, not merely the start/middle/end
// samples the recheck used to probe. A process whose ConfigureMPU fails
// is skipped — the kernel would refuse to schedule it, which fails
// closed.
func armIsolation(k *kernel.Kernel, granular bool) []string {
	var violations []string
	hw := k.Board.Machine.MPU
	record := func(err error) {
		if err != nil {
			violations = append(violations, err.Error())
		}
	}
	kinds := []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite}
	for _, p := range k.Procs {
		if err := p.MM.ConfigureMPU(); err != nil {
			continue
		}
		for _, kind := range kinds {
			record(verify.Require(!hw.AnyAccessibleUser(kernel.KernelDataBase, kernel.KernelRAMSize, kind),
				"faultinject.arm", "kernel-data-isolated",
				"process %s config allows user %v of kernel RAM [0x%08x,+0x%x)",
				p.Name, kind, kernel.KernelDataBase, kernel.KernelRAMSize))
		}
		if granular {
			for _, q := range k.Procs {
				l := q.MM.Layout()
				if l.GrantSize() == 0 {
					continue
				}
				for _, kind := range kinds {
					record(verify.Require(!hw.AnyAccessibleUser(l.KernelBreak, l.MemoryEnd()-l.KernelBreak, kind),
						"faultinject.arm", "grant-isolated",
						"process %s config allows user %v of %s's grant [0x%08x,0x%08x)",
						p.Name, kind, q.Name, l.KernelBreak, l.MemoryEnd()))
				}
			}
		}
		p.MM.DisableMPU()
	}
	return violations
}

// --- RISC-V port driver ---

// rvChip is the chip a scenario runs on.
func rvChip(sc Scenario) riscv.ChipConfig { return riscv.Chips[sc.Chip%len(riscv.Chips)] }

// rvPortName labels the RISC-V port by the scenario's chip.
func rvPortName(sc Scenario) string { return "rv32-" + rvChip(sc).Name }

// rvRun is the RISC-V twin of armRun.
func rvRun(sc Scenario, cfg Config, inject bool, obs kcore.Observe) (portRun, error) {
	app, ok := rvApps()[sc.App]
	if !ok {
		return portRun{}, fmt.Errorf("faultinject: no RISC-V app %q", sc.App)
	}
	chip := rvChip(sc)
	k, err := rvkernel.New(chip)
	if err != nil {
		return portRun{}, err
	}
	k.Attach(obs)
	k.SetFastCore(cfg.FastCore)
	k.FaultPolicy = rvkernel.PolicyRestart
	if sc.Quarantine {
		k.FaultPolicy = rvkernel.PolicyQuarantine
	}
	k.MaxRestarts = MaxRestarts
	k.Watchdog = Watchdog
	k.BackoffBase = BackoffBase
	var r portRun
	installHooks(sc, inject, &k.Hooks, &r, func() {
		var cfgXor uint8
		var addrXor uint32
		if sc.AttrReg {
			cfgXor = 1 << (sc.BitAttr % 8)
		} else {
			addrXor = 1 << (sc.BitAddr % 32)
		}
		k.Machine.PMP.FlipBits(sc.Entry%chip.Entries, cfgXor, addrXor)
	})
	k.Machine.LoadFault = loadHook(sc, inject, &r, func(uint32) error { return errInjectedBus })
	if _, err := k.LoadProcess(app); err != nil {
		return portRun{}, err
	}
	if err := drive(k, sc, inject, app.Quanta, func() bool { return rvBoundaryInject(sc, k) }, &r); err != nil {
		return portRun{}, err
	}
	r.sweep = func() []string { return rvIsolation(k) }
	return r, nil
}

// rvBoundaryInject applies a quantum-boundary injection on the RISC-V
// machine, reporting whether it fired.
func rvBoundaryInject(sc Scenario, k *rvkernel.Kernel) bool {
	m := k.Machine
	switch sc.Kind {
	case KindTimerJitter:
		m.Timer.Jitter(sc.JitterDelta)
		return true
	case KindTimerDrop:
		m.Timer.DropNext()
		return true
	case KindStackSmash:
		for _, p := range k.Procs {
			if p.Alive() {
				p.Regs[rv32.SP] = p.Alloc.Breaks().MemoryStart() + 4
				return true
			}
		}
	}
	return false
}

// rvIsolation re-checks the RISC-V isolation contracts after a run. The RISC-V port has no IPC, so on top of the kernel-data and
// grant clauses it can also require every *other* process's entire
// memory block to be user-inaccessible. As on ARM, every span is checked
// in full through the interval access map rather than by sampling.
func rvIsolation(k *rvkernel.Kernel) []string {
	var violations []string
	pmp := k.Machine.PMP
	record := func(err error) {
		if err != nil {
			violations = append(violations, err.Error())
		}
	}
	kinds := []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite}
	for _, p := range k.Procs {
		if err := p.Alloc.ConfigureMPU(); err != nil {
			continue
		}
		for _, kind := range kinds {
			record(verify.Require(!pmp.AnyAccessibleUser(rvkernel.KernelDataBase, rvkernel.KernelRAMSize, kind),
				"faultinject.rv", "kernel-data-isolated",
				"process %s config allows user %v of kernel RAM [0x%08x,+0x%x)",
				p.Name, kind, rvkernel.KernelDataBase, rvkernel.KernelRAMSize))
		}
		for _, q := range k.Procs {
			b := q.Alloc.Breaks()
			for _, kind := range kinds {
				record(verify.Require(!pmp.AnyAccessibleUser(b.KernelBreak(), b.MemoryEnd()-b.KernelBreak(), kind),
					"faultinject.rv", "grant-isolated",
					"process %s config allows user %v of %s's grant [0x%08x,0x%08x)",
					p.Name, kind, q.Name, b.KernelBreak(), b.MemoryEnd()))
			}
			if q == p {
				continue
			}
			for _, kind := range kinds {
				record(verify.Require(!pmp.AnyAccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), kind),
					"faultinject.rv", "cross-process-isolated",
					"process %s config allows user %v of %s's memory [0x%08x,0x%08x)",
					p.Name, kind, q.Name, b.MemoryStart(), b.AppBreak()))
			}
		}
		p.Alloc.DisableMPU()
	}
	return violations
}

// --- difftest integration ---

// Rows renders every scenario as a structured difftest row: the two
// ports' classifications side by side, Equal when they agree. Divergent
// classifications are reported, never fatal — different ISAs respond to
// the same upset differently by design.
func (r *Report) Rows() []difftest.Row {
	rows := make([]difftest.Row, 0, len(r.Results))
	for _, res := range r.Results {
		row := difftest.Row{
			Name:           res.Scenario.Label(),
			Equal:          res.Agree(),
			TickTock:       portCell(res.ARM),
			Tock:           portCell(res.RV),
			TickTockStates: res.ARM.Port,
			TockStates:     res.RV.Port,
		}
		if res.ARM.Err != "" || res.RV.Err != "" {
			row.Err = fmt.Errorf("arm=%q rv=%q", res.ARM.Err, res.RV.Err)
		}
		rows = append(rows, row)
	}
	return rows
}

// portCell formats one port's result for a difftest row.
func portCell(pr PortResult) string {
	if pr.Err != "" {
		return "error: " + pr.Err
	}
	if pr.Detail == "" {
		return pr.Outcome.String()
	}
	return pr.Outcome.String() + ": " + pr.Detail
}
