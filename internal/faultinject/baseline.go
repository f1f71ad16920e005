package faultinject

import (
	"sync"

	"ticktock/internal/riscv"
)

// A clean baseline fires no injection, so it reads only a few fields of
// its scenario. armBaseKey and rvBaseKey project a scenario onto
// exactly those fields; the baseline then runs from the projection
// itself, so a field the key leaves out cannot feed it.

// armBaseKey is what an uninjected ARM run reads: the app, the flavour
// and the fault policy.
func armBaseKey(sc Scenario) Scenario {
	return Scenario{App: sc.App, Monolithic: sc.Monolithic, Quarantine: sc.Quarantine}
}

// rvBaseKey is what an uninjected RISC-V run reads: the app, the chip
// and the fault policy.
func rvBaseKey(sc Scenario) Scenario {
	return Scenario{App: sc.App, Chip: sc.Chip % len(riscv.Chips), Quarantine: sc.Quarantine}
}

// reach counts how often a run passed each injection point: the calls
// of the three kernel hooks, the machine's protection-checked loads and
// the drive loop's iterations. The hooks that count cost no simulated
// cycle (BenchmarkAblation_FaultInjectOverhead), so counting leaves the
// run as it is.
type reach struct {
	quantumStarts, syscallArgs, syscallRets, loads, quanta int
}

// fires reports whether sc's injection fires in a run that reaches as
// far as r. An injected run is its clean run up to the moment its
// injection fires, and each injection fires on one call of the counter
// it is armed on, so it fires exactly when the clean run made that
// call: a QuantumStart call for the flip, an Nth syscall-hook call for
// the corruptions, a first checked load for the bus fault, and drive's
// iteration sc.Quantum (counted from 0) for the boundary injections.
func (r reach) fires(sc Scenario) bool {
	switch sc.Kind {
	case KindMPUFlip:
		return r.quantumStarts >= sc.Quantum
	case KindSyscallArg:
		return r.syscallArgs >= sc.Nth
	case KindSyscallRet:
		return r.syscallRets >= sc.Nth
	case KindBusFault:
		return r.loads >= 1
	case KindTimerJitter, KindTimerDrop, KindStackSmash:
		return r.quanta > sc.Quantum
	}
	return true // any other kind is run, never answered
}

// baselineTable is one campaign's compute-once table of one port's
// clean baselines, keyed by the port's projection. A baseline is a pure
// function of its key and the campaign's Config, so every scenario with
// the same key shares one run.
//
// An entry is stored only once its run has completed. Two workers that
// miss the same key at once both run it, and the first store wins (the
// two results are equal). Nothing waits on another worker's run, so a
// baseline that wedges, times out or panics strands only its own unit,
// which the supervisor handles as any failed unit, and leaves the key
// empty for the next lookup to run again.
type baselineTable struct {
	mu   sync.Mutex
	done map[Scenario]baseline
	runs int // completed runs, including ones that lost the store
}

// baseline is one clean run's signature and reach, with its isolation
// sweep's findings when the run was swept, or the error that stopped
// it.
type baseline struct {
	sig        runSignature
	seen       reach
	violations []string
	err        error
}

// get returns the baseline of key(sc), running run(key(sc), true) on a
// miss. A nil table runs run(sc, false) on the whole scenario every
// time: the unshared path the shared one must match.
func (t *baselineTable) get(sc Scenario, key func(Scenario) Scenario, run func(sc Scenario, shared bool) baseline) baseline {
	if t == nil {
		return run(sc, false)
	}
	k := key(sc)
	t.mu.Lock()
	b, ok := t.done[k]
	t.mu.Unlock()
	if ok {
		return b
	}
	b = run(k, true)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	if first, ok := t.done[k]; ok {
		return first
	}
	if t.done == nil {
		t.done = map[Scenario]baseline{}
	}
	t.done[k] = b
	return b
}
