package main

import (
	"fmt"
	"time"

	"ticktock/internal/specs"
	"ticktock/internal/verify"
)

// verifyBench checks specs.BuildAll(specs.PaperScale) through
// Registry.RunWith on one worker, Figure 12's sequential timing mode.
// A unit is one obligation.
type verifyBench struct {
	reg *verify.Registry
	// failedSpecs lists obligations the timed phase found violated;
	// states lists each timed pass's enumerated states.
	failedSpecs []string
	states      []uint64
}

func setupVerify(env) (runner, time.Time, error) {
	return &verifyBench{reg: specs.BuildAll(specs.PaperScale)}, time.Now(), nil
}

// measure checks the whole registry again and again, timing each
// obligation from the checker's previous progress call to its own.
func (b *verifyBench) measure(deadline time.Time, minUnits int) (loop, error) {
	var l loop
	start := time.Now()
	for time.Now().Before(deadline) || len(l.samples) < minUnits {
		prev := time.Now()
		rep := b.reg.RunWith(verify.RunOpts{Workers: 1, Progress: func(_, _ int, last *verify.Result) {
			l.samples = append(l.samples, msSince(prev))
			prev = time.Now()
			if !last.OK() {
				l.failed++
				b.failedSpecs = append(b.failedSpecs, last.Spec.Name)
			}
		}})
		b.states = append(b.states, rep.TotalStates())
	}
	l.elapsed = time.Since(start)
	return l, nil
}

func (b *verifyBench) identity() int { return len(b.reg.Specs()) }

func (b *verifyBench) check() []string {
	var out []string
	for _, name := range b.failedSpecs {
		out = append(out, "obligation violated: "+name)
	}
	for i, s := range b.states {
		if s != b.states[0] {
			out = append(out, fmt.Sprintf("timed pass %d enumerated %d states, pass 1 %d", i+1, s, b.states[0]))
		}
	}
	return out
}

// pass checks the registry once through RunWith, then re-drives it
// component by component.
func (b *verifyBench) pass() (pass, []string, error) {
	p := newPass()
	var rep *verify.Report
	p.real(func() { rep = b.reg.RunWith(verify.RunOpts{Workers: 1}) })
	p.units = len(rep.Results)
	p.failed = len(rep.Failed())
	want := map[string]uint64{}
	for _, r := range rep.Results {
		want[r.Spec.Component] += r.States
	}

	var problems []string
	covered := map[string]bool{}
	p.redrive(func() {
		for _, c := range verifyComponents {
			name := "verify." + c.slug
			var sub *verify.Report
			p.span(name+".s", func() { sub = b.reg.RunComponent(c.name) })
			p.counts[name+".states"] = sub.TotalStates()
			covered[c.name] = true
			if sub.TotalStates() != want[c.name] || !sub.OK() {
				problems = append(problems, fmt.Sprintf("component %s: re-drive enumerated %d states (ok=%v), RunWith %d",
					c.name, sub.TotalStates(), sub.OK(), want[c.name]))
			}
		}
	})
	for _, c := range b.reg.Components() {
		if !covered[c] {
			problems = append(problems, "component "+c+" has no per-layer metric")
		}
	}
	p.counts["trace.units"] = uint64(p.units)
	return p, problems, nil
}

func (b *verifyBench) close() {}
