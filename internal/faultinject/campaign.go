package faultinject

import (
	"errors"
	"fmt"
	"strings"

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

// armCases indexes the ARM release tests by name.
func armCases() map[string]apps.TestCase {
	out := make(map[string]apps.TestCase)
	for _, tc := range apps.All() {
		out[tc.Name] = tc
	}
	return out
}

// rvApps indexes the RISC-V release subset by name.
func rvApps() map[string]rvkernel.App {
	out := make(map[string]rvkernel.App)
	for _, app := range rvkernel.ReleaseSubset() {
		out[app.Name] = app
	}
	return out
}

// Run executes the campaign under campaign.Supervise with no timeout,
// retries or journal, on cfg.Workers workers. Scenarios are independent
// kernel pairs, so they parallelize freely; results land by index, so
// the report is identical under any worker count. Chaos is ignored: it
// exercises supervision settings a plain run does not have (see
// RunSupervised). A scenario that panics is quarantined into the
// report's supervision section instead of crashing the process.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	run, _ := campaign.Supervise(campaign.Config{Workers: cfg.Workers}, units(cfg, nil, nil)) // no journal: cannot fail
	return ReportFromRun(cfg, run)
}

// RunScenario executes one scenario on both ports: an uninjected
// baseline and an injected run each, classifying the injected run
// against its baseline.
func RunScenario(sc Scenario, cfg Config) Result {
	return runScenario(sc, cfg, nil)
}

// runScenario is RunScenario with a kernel tracer attached to the
// *injected* runs on both ports — the hook the live telemetry plane
// uses to nest a scenario's kernel events under its attempt span in the
// fleet timeline. The tracer observes the cycle meter without charging
// it, so a traced Result is identical to an untraced one. A nil tracer
// is exactly RunScenario.
func runScenario(sc Scenario, cfg Config, tr *trace.Tracer) Result {
	cfg = cfg.withDefaults()
	return Result{
		Scenario: sc,
		ARM:      runARMScenario(sc, cfg, tr),
		RV:       runRVScenario(sc, cfg, tr),
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
	armPort := "arm-ticktock"
	if sc.Monolithic {
		armPort = "arm-tock"
	}
	armRec := flightrec.NewRecorder(armPort)
	var armErr, rvErr error
	if _, _, _, e := armRun(sc, cfg, inject, kcore.Observe{FlightRec: armRec}); e != nil {
		armErr = fmt.Errorf("faultinject: recording %s: %w", armPort, e)
	}
	chip := riscv.Chips[sc.Chip%len(riscv.Chips)]
	rvRec := flightrec.NewRecorder("rv32-" + chip.Name)
	if _, _, _, e := rvRun(sc, cfg, chip, inject, kcore.Observe{FlightRec: rvRec}); e != nil {
		rvErr = fmt.Errorf("faultinject: recording rv32-%s: %w", chip.Name, e)
	}
	if armErr != nil || rvErr != nil {
		return nil, nil, errors.Join(armErr, rvErr)
	}
	return armRec.Finish(), rvRec.Finish(), nil
}

// classifyPort folds the baseline/injected pair into a PortResult.
func classifyPort(port string, base, inj runSignature, applied bool, violations []string) PortResult {
	pr := PortResult{Port: port, Applied: applied, Violations: violations}
	pr.Outcome, pr.Detail = classify(applied, base, inj)
	if inj.Quarantines > base.Quarantines {
		pr.QuarantineDelta = inj.Quarantines - base.Quarantines
	}
	return pr
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
// alive, firing the boundary injection at the scenario's quantum when
// inject is set, and returns the run signature and whether the boundary
// injection fired.
func drive(k portKernel, sc Scenario, inject bool, quanta int, boundary func() bool) (runSignature, bool, error) {
	fired := false
	for q := 0; q < quanta && k.Alive(); q++ {
		if inject && q == sc.Quantum {
			fired = boundary()
		}
		ran, err := k.RunOnce()
		if err != nil {
			return runSignature{}, fired, err
		}
		if !ran {
			break
		}
	}
	return signature(k), fired, nil
}

// installHooks arms the scenario's hook injection on either port: an
// upset (flip) at the start of the sc.Quantum-th user quantum — after
// the kernel programmed the protection unit, while user code owns the
// pipeline, so the kernel's per-switch reconfiguration bounds the
// exposure to one quantum — or corruption of the sc.Nth syscall's
// arguments or return value. It sets *applied when the injection fires.
func installHooks[P any, C kcore.Class](sc Scenario, h *kcore.FaultHooks[P, C], applied *bool, flip func()) {
	n := 0
	switch sc.Kind {
	case KindMPUFlip:
		h.QuantumStart = func(P) {
			if n++; n == sc.Quantum {
				*applied = true
				flip()
			}
		}
	case KindSyscallArg:
		h.SyscallArgs = func(_ P, _ C, args [4]uint32) [4]uint32 {
			if n++; n == sc.Nth {
				*applied = true
				args[sc.ArgIdx] ^= sc.XorVal
			}
			return args
		}
	case KindSyscallRet:
		h.SyscallRet = func(_ P, _ C, ret uint32) uint32 {
			if n++; n == sc.Nth {
				*applied = true
				ret ^= sc.XorVal
			}
			return ret
		}
	}
}

// failFirstLoad is a machine LoadFault hook that fails the first
// protection-checked load with fail(addr): the release apps perform few
// data loads, so "nth load" would usually never be reached; load-free
// programs still classify as skipped. It sets *applied when it fires.
func failFirstLoad(applied *bool, fail func(addr uint32) error) func(uint32) error {
	n := 0
	return func(addr uint32) error {
		if n++; n == 1 {
			*applied = true
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

func runARMScenario(sc Scenario, cfg Config, tr *trace.Tracer) PortResult {
	port := "arm-ticktock"
	if sc.Monolithic {
		port = "arm-tock"
	}
	base, _, _, err := armRun(sc, cfg, false, kcore.Observe{})
	if err != nil {
		return PortResult{Port: port, Err: err.Error()}
	}
	var rec *flightrec.Recorder
	if cfg.Record {
		rec = flightrec.NewRecorder(port)
	}
	inj, violations, applied, err := armRun(sc, cfg, true, kcore.Observe{Trace: tr, FlightRec: rec})
	if err != nil {
		return PortResult{Port: port, Err: err.Error()}
	}
	pr := classifyPort(port, base, inj, applied, violations)
	if rec != nil && len(violations) > 0 {
		pr.Replay = rec.Finish()
	}
	return pr
}

// armRun executes the scenario's test case once on the ARM port with
// obs attached, optionally with the scenario's injection armed. Hook
// injections (syscall corruption, bus faults) arm before boot and fire
// on their nth event; boundary injections fire at the scenario's
// scheduling quantum. It returns the run signature, the isolation sweep's findings
// (injected runs only) and whether the injection actually fired.
func armRun(sc Scenario, cfg Config, inject bool, obs kcore.Observe) (runSignature, []string, bool, error) {
	tc, ok := armCases()[sc.App]
	if !ok {
		return runSignature{}, nil, false, fmt.Errorf("faultinject: no ARM case %q", sc.App)
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
	applied := false
	var machine *armv7m.Machine
	if inject {
		installHooks(sc, &opts.Hooks, &applied, func() {
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
	}
	k, err := kernel.New(opts)
	if err != nil {
		return runSignature{}, nil, false, err
	}
	machine = k.Board.Machine
	if inject && sc.Kind == KindBusFault {
		machine.LoadFault = failFirstLoad(&applied, func(addr uint32) error { return &physmem.BusError{Addr: addr} })
	}
	for _, app := range tc.Apps {
		if _, err := k.LoadProcess(app); err != nil {
			return runSignature{}, nil, false, err
		}
	}
	quanta := tc.Quanta
	if quanta == 0 {
		quanta = difftest.DefaultQuanta
	}
	sig, fired, err := drive(k, sc, inject, quanta, func() bool { return armBoundaryInject(sc, k) })
	applied = applied || fired
	if err != nil {
		return runSignature{}, nil, applied, err
	}
	var violations []string
	if inject {
		violations = armIsolation(k, !sc.Monolithic)
	}
	return sig, violations, applied, nil
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

// armIsolation re-checks the isolation contracts after an injected run:
// under every process's MPU configuration, kernel data must stay
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

func runRVScenario(sc Scenario, cfg Config, tr *trace.Tracer) PortResult {
	chip := riscv.Chips[sc.Chip%len(riscv.Chips)]
	port := "rv32-" + chip.Name
	base, _, _, err := rvRun(sc, cfg, chip, false, kcore.Observe{})
	if err != nil {
		return PortResult{Port: port, Err: err.Error()}
	}
	var rec *flightrec.Recorder
	if cfg.Record {
		rec = flightrec.NewRecorder(port)
	}
	inj, violations, applied, err := rvRun(sc, cfg, chip, true, kcore.Observe{Trace: tr, FlightRec: rec})
	if err != nil {
		return PortResult{Port: port, Err: err.Error()}
	}
	pr := classifyPort(port, base, inj, applied, violations)
	if rec != nil && len(violations) > 0 {
		pr.Replay = rec.Finish()
	}
	return pr
}

// rvRun is the RISC-V twin of armRun.
func rvRun(sc Scenario, cfg Config, chip riscv.ChipConfig, inject bool, obs kcore.Observe) (runSignature, []string, bool, error) {
	app, ok := rvApps()[sc.App]
	if !ok {
		return runSignature{}, nil, false, fmt.Errorf("faultinject: no RISC-V app %q", sc.App)
	}
	k, err := rvkernel.New(chip)
	if err != nil {
		return runSignature{}, nil, false, err
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
	applied := false
	if inject {
		installHooks(sc, &k.Hooks, &applied, func() {
			var cfgXor uint8
			var addrXor uint32
			if sc.AttrReg {
				cfgXor = 1 << (sc.BitAttr % 8)
			} else {
				addrXor = 1 << (sc.BitAddr % 32)
			}
			k.Machine.PMP.FlipBits(sc.Entry%chip.Entries, cfgXor, addrXor)
		})
		if sc.Kind == KindBusFault {
			k.Machine.LoadFault = failFirstLoad(&applied, func(uint32) error { return errInjectedBus })
		}
	}
	if _, err := k.LoadProcess(app); err != nil {
		return runSignature{}, nil, false, err
	}
	quanta := 2000
	if sc.App == "whileone" {
		quanta = 30
	}
	sig, fired, err := drive(k, sc, inject, quanta, func() bool { return rvBoundaryInject(sc, k) })
	applied = applied || fired
	if err != nil {
		return runSignature{}, nil, applied, err
	}
	var violations []string
	if inject {
		violations = rvIsolation(k)
	}
	return sig, violations, applied, nil
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

// rvIsolation re-checks the RISC-V isolation contracts after an injected
// run. The RISC-V port has no IPC, so on top of the kernel-data and
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
