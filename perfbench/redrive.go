package main

import (
	"errors"
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/blockcache"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/rvkernel"
	"ticktock/internal/verify"
)

// This file re-drives fault scenarios and difftest cases through the
// kernels' public entry points, in the order faultinject's and
// difftest's own drivers call them, and times each layer into a pass:
// boot (kernel.New / rvkernel.New), load (LoadProcess), stepping (the
// RunOnce loop, or Run) and the isolation recheck (AnyAccessibleUser).
// Its results must equal the real drivers' unit by unit; the traced run
// checks that, so a re-drive that drifts from the driver shows up.

// The supervision settings of faultinject.Config's zero value.
const (
	defaultMaxRestarts = 2
	defaultWatchdog    = 3
	defaultBackoffBase = 512
	// rvQuanta bounds a RISC-V run; whileone never exits, so it gets
	// rvWhileoneQuanta.
	rvQuanta         = 2000
	rvWhileoneQuanta = 30
)

// rasrBits are the RASR bits an MPU upset can strike, as faultinject
// picks them.
var rasrBits = []uint{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 28}

var errInjectedBus = errors.New("faultinject: transient bus read error")

// redriver holds the application images both ports run.
type redriver struct {
	armCases map[string]apps.TestCase
	rvApps   map[string]rvkernel.App
}

func newRedriver() *redriver {
	d := &redriver{armCases: map[string]apps.TestCase{}, rvApps: map[string]rvkernel.App{}}
	for _, tc := range apps.All() {
		d.armCases[tc.Name] = tc
	}
	for _, app := range rvkernel.ReleaseSubset() {
		d.rvApps[app.Name] = app
	}
	return d
}

// boot times one kernel boot and the heap it allocates.
func (p *pass) boot(f func()) {
	a := heapAllocBytes()
	p.span("kernel.boot.s", f)
	p.vals["kernel.boot.alloc_mb"] += (heapAllocBytes() - a) / 1e6
	p.counts["kernel.boot.calls"]++
}

// load times one LoadProcess call.
func (p *pass) load(f func() error) error {
	var err error
	p.span("kernel.load.s", func() { err = f() })
	p.counts["kernel.load.calls"]++
	return err
}

// kernelCounts books a finished kernel's exact counters.
func (p *pass) kernelCounts(st *kernel.Stats, mapBuilds uint64, bc *blockcache.Stats) {
	if st != nil {
		for _, m := range fig11Methods {
			p.counts["kernel."+m+".count"] += st.Get(m).Count
		}
	}
	p.counts["accessmap.builds"] += mapBuilds
	if bc != nil {
		p.counts["blockcache.hits"] += bc.Hits
		p.counts["blockcache.misses"] += bc.Misses
		p.counts["blockcache.slow_steps"] += bc.SlowSteps
		p.counts["blockcache.hint_hits"] += bc.HintHits
		p.counts["blockcache.hint_misses"] += bc.HintMisses
	}
}

// zeroKernelCounts makes every kernel-layer count present in the pass,
// so a count that stays 0 is still compared between runs.
func (p *pass) zeroKernelCounts() {
	names := []string{"kernel.boot.calls", "kernel.load.calls", "step.quanta", "step.sim_cycles",
		"accessmap.builds", "blockcache.hits", "blockcache.misses", "blockcache.slow_steps",
		"blockcache.hint_hits", "blockcache.hint_misses"}
	for _, m := range fig11Methods {
		names = append(names, "kernel."+m+".count")
	}
	for _, n := range names {
		p.counts[n] += 0
	}
}

// signature is what classification compares between a scenario's
// baseline and injected run on one port.
type signature struct {
	faults, watchdog, quarantines, syscallErrors, restarts uint64
	output, states                                         string
}

// classify folds a baseline/injected pair into a PortResult with
// faultinject's taxonomy.
func classify(port string, base, inj signature, applied bool, violations []string) faultinject.PortResult {
	pr := faultinject.PortResult{Port: port, Applied: applied, Violations: violations}
	var moved []string
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"faults", inj.faults, base.faults},
		{"watchdog", inj.watchdog, base.watchdog},
		{"quarantines", inj.quarantines, base.quarantines},
		{"syscall-errors", inj.syscallErrors, base.syscallErrors},
		{"restarts", inj.restarts, base.restarts},
	} {
		if c.got != c.want {
			moved = append(moved, fmt.Sprintf("%s %d→%d", c.name, c.want, c.got))
		}
	}
	switch {
	case !applied:
		pr.Outcome = faultinject.OutcomeSkipped
	case len(moved) > 0:
		pr.Outcome, pr.Detail = faultinject.OutcomeDetected, strings.Join(moved, " ")
	case inj.output == base.output && inj.states == base.states:
		pr.Outcome = faultinject.OutcomeMasked
	default:
		pr.Outcome, pr.Detail = faultinject.OutcomeBenign, "diverged without supervision response"
	}
	if inj.quarantines > base.quarantines {
		pr.QuarantineDelta = inj.quarantines - base.quarantines
	}
	return pr
}

// tally books a port's outcome into the pass's fault-injection counts.
func (p *pass) tally(pr faultinject.PortResult) {
	if pr.Outcome != faultinject.OutcomeSkipped {
		p.counts["faultinject.injected"]++
	}
	p.counts["faultinject."+pr.Outcome.String()]++
}

// scenario re-drives one fault scenario on both ports.
func (d *redriver) scenario(p *pass, sc faultinject.Scenario) faultinject.Result {
	res := faultinject.Result{Scenario: sc, ARM: d.armPort(p, sc), RV: d.rvPort(p, sc)}
	p.tally(res.ARM)
	p.tally(res.RV)
	return res
}

func (d *redriver) armPort(p *pass, sc faultinject.Scenario) faultinject.PortResult {
	port := "arm-ticktock"
	if sc.Monolithic {
		port = "arm-tock"
	}
	base, _, _, err := d.armRun(p, sc, false)
	if err != nil {
		return faultinject.PortResult{Port: port, Err: err.Error()}
	}
	inj, violations, applied, err := d.armRun(p, sc, true)
	if err != nil {
		return faultinject.PortResult{Port: port, Err: err.Error()}
	}
	return classify(port, base, inj, applied, violations)
}

// armRun runs the scenario's case once on the ARM port, with the
// injection armed through the public hooks when inject is set.
func (d *redriver) armRun(p *pass, sc faultinject.Scenario, inject bool) (signature, []string, bool, error) {
	tc, ok := d.armCases[sc.App]
	if !ok {
		return signature{}, nil, false, fmt.Errorf("faultinject: no ARM case %q", sc.App)
	}
	opts := kernel.Options{
		Flavour:     kernel.FlavourTickTock,
		FaultPolicy: kernel.PolicyRestart,
		MaxRestarts: defaultMaxRestarts,
		Watchdog:    defaultWatchdog,
		BackoffBase: defaultBackoffBase,
	}
	if sc.Monolithic {
		opts.Flavour = kernel.FlavourTock
	}
	if sc.Quarantine {
		opts.FaultPolicy = kernel.PolicyQuarantine
	}
	applied := false
	var machine *armv7m.Machine
	if inject {
		n := 0
		switch sc.Kind {
		case faultinject.KindMPUFlip:
			opts.Hooks.QuantumStart = func(*kernel.Process) {
				n++
				if n == sc.Quantum && machine != nil {
					applied = true
					var rbarXor, rasrXor uint32
					if sc.AttrReg {
						rasrXor = 1 << rasrBits[sc.BitAttr%uint(len(rasrBits))]
					} else {
						rbarXor = 1 << (5 + sc.BitAddr%27)
					}
					machine.MPU.FlipBits(sc.Entry%armv7m.NumRegions, rbarXor, rasrXor)
				}
			}
		case faultinject.KindSyscallArg:
			opts.Hooks.SyscallArgs = func(_ *kernel.Process, _ uint8, args [4]uint32) [4]uint32 {
				if n++; n == sc.Nth {
					applied = true
					args[sc.ArgIdx] ^= sc.XorVal
				}
				return args
			}
		case faultinject.KindSyscallRet:
			opts.Hooks.SyscallRet = func(_ *kernel.Process, _ uint8, ret uint32) uint32 {
				if n++; n == sc.Nth {
					applied = true
					ret ^= sc.XorVal
				}
				return ret
			}
		}
	}
	var k *kernel.Kernel
	var err error
	p.boot(func() { k, err = kernel.New(opts) })
	if err != nil {
		return signature{}, nil, false, err
	}
	machine = k.Board.Machine
	if inject && sc.Kind == faultinject.KindBusFault {
		loads := 0
		machine.LoadFault = func(addr uint32) error {
			if loads++; loads == 1 {
				applied = true
				return &physmem.BusError{Addr: addr}
			}
			return nil
		}
	}
	for _, app := range tc.Apps {
		if err := p.load(func() error { _, err := k.LoadProcess(app); return err }); err != nil {
			return signature{}, nil, false, err
		}
	}
	quanta := tc.Quanta
	if quanta == 0 {
		quanta = difftest.DefaultQuanta
	}
	c0 := k.Board.Meter.Cycles()
	p.span("step.s", func() {
		for q := 0; q < quanta && anyAlive(k.Procs); q++ {
			if inject && q == sc.Quantum {
				applied = armBoundaryInject(sc, k) || applied
			}
			var ran bool
			ran, err = k.RunOnce()
			p.counts["step.quanta"]++
			if err != nil || !ran {
				break
			}
		}
	})
	p.counts["step.sim_cycles"] += k.Board.Meter.Cycles() - c0
	if err != nil {
		return signature{}, nil, applied, err
	}
	sig := armSignature(k)
	var violations []string
	if inject {
		p.span("recheck.s", func() { violations = armIsolation(k, !sc.Monolithic) })
	}
	p.kernelCounts(k.Stats, machine.MPU.MapBuilds, machine.FastStats())
	return sig, violations, applied, nil
}

func anyAlive[P interface{ Alive() bool }](procs []P) bool {
	for _, p := range procs {
		if p.Alive() {
			return true
		}
	}
	return false
}

func armBoundaryInject(sc faultinject.Scenario, k *kernel.Kernel) bool {
	m := k.Board.Machine
	switch sc.Kind {
	case faultinject.KindTimerJitter:
		m.Tick.Jitter(sc.JitterDelta)
		return true
	case faultinject.KindTimerDrop:
		m.Tick.DropNext()
		return true
	case faultinject.KindStackSmash:
		for _, p := range k.Procs {
			if p.Alive() {
				p.PSP = p.MM.Layout().MemoryStart + 4
				return true
			}
		}
	}
	return false
}

func armSignature(k *kernel.Kernel) signature {
	var out, states strings.Builder
	var restarts uint64
	for _, p := range k.Procs {
		fmt.Fprintf(&out, "[%s] %s", p.Name, k.Output(p))
		fmt.Fprintf(&states, "%s=%s ", p.Name, p.State)
		restarts += uint64(p.Restarts)
	}
	return signature{k.Faults, k.WatchdogFires, k.Quarantines, k.SyscallErrors, restarts, out.String(), states.String()}
}

// armIsolation is the post-run recheck: under every process's MPU
// configuration no byte of kernel RAM, and on the granular flavour no
// byte of any grant region, may be user-accessible.
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

func (d *redriver) rvPort(p *pass, sc faultinject.Scenario) faultinject.PortResult {
	chip := riscv.Chips[sc.Chip%len(riscv.Chips)]
	port := "rv32-" + chip.Name
	base, _, _, err := d.rvRun(p, sc, chip, false)
	if err != nil {
		return faultinject.PortResult{Port: port, Err: err.Error()}
	}
	inj, violations, applied, err := d.rvRun(p, sc, chip, true)
	if err != nil {
		return faultinject.PortResult{Port: port, Err: err.Error()}
	}
	return classify(port, base, inj, applied, violations)
}

// rvRun is the RISC-V twin of armRun.
func (d *redriver) rvRun(p *pass, sc faultinject.Scenario, chip riscv.ChipConfig, inject bool) (signature, []string, bool, error) {
	app, ok := d.rvApps[sc.App]
	if !ok {
		return signature{}, nil, false, fmt.Errorf("faultinject: no RISC-V app %q", sc.App)
	}
	var k *rvkernel.Kernel
	var err error
	p.boot(func() {
		if k, err = rvkernel.New(chip); err != nil {
			return
		}
		k.SetFastCore(false)
		k.FaultPolicy = rvkernel.PolicyRestart
		if sc.Quarantine {
			k.FaultPolicy = rvkernel.PolicyQuarantine
		}
		k.MaxRestarts = defaultMaxRestarts
		k.Watchdog = defaultWatchdog
		k.BackoffBase = defaultBackoffBase
	})
	if err != nil {
		return signature{}, nil, false, err
	}
	applied := false
	if inject {
		n := 0
		switch sc.Kind {
		case faultinject.KindMPUFlip:
			k.Hooks.QuantumStart = func(*rvkernel.Process) {
				if n++; n == sc.Quantum {
					applied = true
					var cfgXor uint8
					var addrXor uint32
					if sc.AttrReg {
						cfgXor = 1 << (sc.BitAttr % 8)
					} else {
						addrXor = 1 << (sc.BitAddr % 32)
					}
					k.Machine.PMP.FlipBits(sc.Entry%chip.Entries, cfgXor, addrXor)
				}
			}
		case faultinject.KindSyscallArg:
			k.Hooks.SyscallArgs = func(_ *rvkernel.Process, _ uint32, args [4]uint32) [4]uint32 {
				if n++; n == sc.Nth {
					applied = true
					args[sc.ArgIdx] ^= sc.XorVal
				}
				return args
			}
		case faultinject.KindSyscallRet:
			k.Hooks.SyscallRet = func(_ *rvkernel.Process, _ uint32, ret uint32) uint32 {
				if n++; n == sc.Nth {
					applied = true
					ret ^= sc.XorVal
				}
				return ret
			}
		case faultinject.KindBusFault:
			k.Machine.LoadFault = func(uint32) error {
				if n++; n == 1 {
					applied = true
					return errInjectedBus
				}
				return nil
			}
		}
	}
	if err := p.load(func() error { _, err := k.LoadProcess(app); return err }); err != nil {
		return signature{}, nil, false, err
	}
	quanta := rvQuanta
	if sc.App == "whileone" {
		quanta = rvWhileoneQuanta
	}
	c0 := k.Machine.Meter.Cycles()
	p.span("step.s", func() {
		for q := 0; q < quanta && anyAlive(k.Procs); q++ {
			if inject && q == sc.Quantum {
				applied = rvBoundaryInject(sc, k) || applied
			}
			var ran bool
			ran, err = k.RunOnce()
			p.counts["step.quanta"]++
			if err != nil || !ran {
				break
			}
		}
	})
	p.counts["step.sim_cycles"] += k.Machine.Meter.Cycles() - c0
	if err != nil {
		return signature{}, nil, applied, err
	}
	sig := rvSignature(k)
	var violations []string
	if inject {
		p.span("recheck.s", func() { violations = rvIsolation(k) })
	}
	p.kernelCounts(nil, k.Machine.PMP.MapBuilds, k.Machine.FastStats())
	return sig, violations, applied, nil
}

func rvBoundaryInject(sc faultinject.Scenario, k *rvkernel.Kernel) bool {
	m := k.Machine
	switch sc.Kind {
	case faultinject.KindTimerJitter:
		m.Timer.Jitter(sc.JitterDelta)
		return true
	case faultinject.KindTimerDrop:
		m.Timer.DropNext()
		return true
	case faultinject.KindStackSmash:
		for _, p := range k.Procs {
			if p.Alive() {
				p.Regs[rv32.SP] = p.Alloc.Breaks().MemoryStart() + 4
				return true
			}
		}
	}
	return false
}

func rvSignature(k *rvkernel.Kernel) signature {
	var out, states strings.Builder
	var restarts uint64
	for _, p := range k.Procs {
		fmt.Fprintf(&out, "[%s] %s", p.Name, k.Output(p))
		fmt.Fprintf(&states, "%s=%s ", p.Name, p.State)
		restarts += uint64(p.Restarts)
	}
	return signature{k.Faults, k.WatchdogFires, k.Quarantines, k.SyscallErrors, restarts, out.String(), states.String()}
}

// rvIsolation is the RISC-V recheck: kernel RAM, every grant region and
// every other process's memory must be user-inaccessible under each
// process's PMP configuration.
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

// difftestCase re-drives one release case on both flavours, as
// difftest's runOn does.
func (d *redriver) difftestCase(p *pass, tc apps.TestCase) difftest.Row {
	row := difftest.Row{Name: tc.Name, ExpectDiff: tc.ExpectDiff}
	var err error
	if row.TickTock, row.TickTockStates, err = d.runOn(p, tc, kernel.FlavourTickTock); err != nil {
		row.Err = err
		return row
	}
	if row.Tock, row.TockStates, err = d.runOn(p, tc, kernel.FlavourTock); err != nil {
		row.Err = err
		return row
	}
	row.Equal = row.TickTock == row.Tock
	return row
}

func (d *redriver) runOn(p *pass, tc apps.TestCase, fl kernel.Flavour) (string, string, error) {
	var k *kernel.Kernel
	var err error
	p.boot(func() { k, err = kernel.New(kernel.Options{Flavour: fl}) })
	if err != nil {
		return "", "", err
	}
	procs := make([]*kernel.Process, 0, len(tc.Apps))
	for _, app := range tc.Apps {
		err := p.load(func() error {
			proc, err := k.LoadProcess(app)
			procs = append(procs, proc)
			return err
		})
		if err != nil {
			return "", "", fmt.Errorf("difftest %s on %s: %w", tc.Name, fl, err)
		}
	}
	quanta := tc.Quanta
	if quanta == 0 {
		quanta = difftest.DefaultQuanta
	}
	c0 := k.Board.Meter.Cycles()
	var n int
	p.span("step.s", func() { n, err = k.Run(quanta) })
	p.counts["step.quanta"] += uint64(n)
	p.counts["step.sim_cycles"] += k.Board.Meter.Cycles() - c0
	if err != nil {
		return "", "", fmt.Errorf("difftest %s on %s: %w", tc.Name, fl, err)
	}
	k.PublishMetrics()
	var out, states strings.Builder
	for _, proc := range procs {
		fmt.Fprintf(&out, "[%s] %s", proc.Name, k.Output(proc))
		fmt.Fprintf(&states, "%s=%s ", proc.Name, proc.State)
	}
	p.kernelCounts(k.Stats, k.Board.Machine.MPU.MapBuilds, k.Board.Machine.FastStats())
	return out.String(), states.String(), nil
}
