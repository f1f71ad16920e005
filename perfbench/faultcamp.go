package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"ticktock/internal/faultinject"
)

// campaignSize is the scenario count of one fault campaign. The
// workload seed picks a sequence of campaigns, and campaign c is
// faultinject.GenScenarios(campaignConfig(seed, c)). Campaign 0 is the
// identity set of the traced run and of the output checks.
const campaignSize = 100

func campaignConfig(seed int64, c int) faultinject.Config {
	return faultinject.Config{Seed: seed<<16 + int64(c), N: campaignSize}
}

// scenarioStream hands out the fault workloads' unit stream: campaign
// after campaign, each generated when the loop first reaches it, as a
// campaign's own start-up would.
type scenarioStream struct {
	seed      int64
	campaigns [][]faultinject.Scenario
}

func (s *scenarioStream) at(u int) (faultinject.Scenario, faultinject.Config) {
	c := u / campaignSize
	for len(s.campaigns) <= c {
		s.campaigns = append(s.campaigns, faultinject.GenScenarios(campaignConfig(s.seed, len(s.campaigns))))
	}
	return s.campaigns[c][u%campaignSize], campaignConfig(s.seed, c)
}

// scenarioFailed reports whether a scenario errored, broke isolation or
// was quarantined by a supervisor.
func scenarioFailed(r faultinject.Result) bool {
	return r.Sup != "" || r.ARM.Err != "" || r.RV.Err != "" ||
		len(r.ARM.Violations) > 0 || len(r.RV.Violations) > 0
}

// faultcamp drives faultinject.RunScenario over the seeded scenarios
// with the default (oracle core, unsupervised) Config.
type faultcamp struct {
	e       env
	stream  *scenarioStream
	redrive *redriver
	// first is campaign 0 as the timed phase produced it.
	first []faultinject.Result
}

func setupFaultcamp(e env) (runner, time.Time, error) {
	b := &faultcamp{e: e, stream: &scenarioStream{seed: e.seed}, redrive: newRedriver()}
	b.stream.at(0)
	return b, time.Now(), nil
}

func (b *faultcamp) measure(deadline time.Time, minUnits int) (loop, error) {
	b.first = make([]faultinject.Result, campaignSize)
	return closedLoop(deadline, minUnits, func(u int) bool {
		sc, cfg := b.stream.at(u)
		res := faultinject.RunScenario(sc, cfg)
		if u < campaignSize {
			b.first[u] = res
		}
		return !scenarioFailed(res)
	}), nil
}

func (b *faultcamp) identity() int { return campaignSize }

func (b *faultcamp) check() []string { return checkCampaign(b.e, b.first) }

// checkCampaign compares the per-scenario results a workload assembled
// for campaign 0 with faultinject.Run at the same seed.
func checkCampaign(e env, got []faultinject.Result) []string {
	cfg := campaignConfig(e.seed, 0)
	cfg.Workers = workers
	ref := faultinject.Run(cfg)
	var out []string
	if len(ref.Violations) > 0 || ref.ARM.Errors > 0 || ref.RV.Errors > 0 {
		out = append(out, fmt.Sprintf("faultinject.Run: %d isolation violations, %d ARM and %d RISC-V errors",
			len(ref.Violations), ref.ARM.Errors, ref.RV.Errors))
	}
	for i, want := range ref.Results {
		if !sameJSON(want, got[i]) {
			out = append(out, fmt.Sprintf("%s: result differs from faultinject.Run", want.Scenario.Label()))
		}
	}
	return out
}

// sameJSON compares two results by their JSON encoding, the form a
// campaign journal keeps.
func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

func (b *faultcamp) pass() (pass, []string, error) {
	p := newPass()
	p.zeroKernelCounts()
	for _, o := range outcomeCounts {
		p.counts["faultinject."+o] += 0
	}
	var problems []string
	for u := 0; u < campaignSize; u++ {
		sc, cfg := b.stream.at(u)
		var want, got faultinject.Result
		p.real(func() { want = faultinject.RunScenario(sc, cfg) })
		p.units++
		if scenarioFailed(want) {
			p.failed++
		}
		p.redrive(func() { got = b.redrive.scenario(&p, sc) })
		if !sameJSON(want, got) {
			problems = append(problems, fmt.Sprintf("%s: re-drive result differs from faultinject.RunScenario (ARM %+v / %+v, RISC-V %+v / %+v)",
				sc.Label(), got.ARM, want.ARM, got.RV, want.RV))
		}
	}
	p.counts["trace.units"] = uint64(p.units)
	return p, problems, nil
}

func (b *faultcamp) close() {}
