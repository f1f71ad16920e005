package faultinject

import (
	"sync"

	"ticktock/internal/riscv"
)

// A clean baseline installs no hook, fires no boundary injection and
// skips the isolation sweep, so it reads only a few fields of its
// scenario. armBaseKey and rvBaseKey project a scenario onto exactly
// those fields; the baseline then runs from the projection itself, so a
// field the key leaves out cannot feed it.

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

// baseline is one clean run's signature, or the error that stopped it.
type baseline struct {
	sig runSignature
	err error
}

// get returns the baseline of key(sc), running run(key(sc)) on a miss.
// A nil table runs run(sc) on the whole scenario every time: the
// unshared path the shared one must match.
func (t *baselineTable) get(sc Scenario, key func(Scenario) Scenario, run func(Scenario) (runSignature, error)) (runSignature, error) {
	if t == nil {
		return run(sc)
	}
	k := key(sc)
	t.mu.Lock()
	b, ok := t.done[k]
	t.mu.Unlock()
	if ok {
		return b.sig, b.err
	}
	b.sig, b.err = run(k)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	if first, ok := t.done[k]; ok {
		return first.sig, first.err
	}
	if t.done == nil {
		t.done = map[Scenario]baseline{}
	}
	t.done[k] = b
	return b.sig, b.err
}
