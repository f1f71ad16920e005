package main

import (
	"fmt"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/difftest"
)

// wantSuite is the §6.1 campaign's healthy summary.
var wantSuite = difftest.Summary{Total: 21, Equal: 16, Differing: 5}

// difftestBench drives difftest.RunCaseConfig over the release cases
// with the default Config, repeating the suite.
type difftestBench struct {
	e       env
	cases   []apps.TestCase
	redrive *redriver
	// seen holds each case's row as the timed phase first produced it;
	// changed lists cases whose later rows differed from it.
	seen    []string
	changed []string
}

func setupDifftest(e env) (runner, time.Time, error) {
	b := &difftestBench{e: e, cases: apps.All(), redrive: newRedriver()}
	return b, time.Now(), nil
}

// rowKey is everything a difftest row reports about its case.
func rowKey(r difftest.Row) string {
	return fmt.Sprintf("%s|%v|%v|%q|%q|%q|%q|%v",
		r.Name, r.ExpectDiff, r.Equal, r.TickTock, r.Tock, r.TickTockStates, r.TockStates, r.Err)
}

func (b *difftestBench) measure(deadline time.Time, minUnits int) (loop, error) {
	b.seen = make([]string, len(b.cases))
	return closedLoop(deadline, minUnits, func(u int) bool {
		c := u % len(b.cases)
		row := difftest.RunCaseConfig(b.cases[c], difftest.Config{})
		key := rowKey(row)
		if b.seen[c] == "" {
			b.seen[c] = key
		} else if b.seen[c] != key {
			b.changed = append(b.changed, row.Name)
		}
		return row.Err == nil && row.OK()
	}), nil
}

func (b *difftestBench) identity() int { return len(b.cases) }

func (b *difftestBench) check() []string {
	ref := difftest.RunAllConfig(difftest.Config{Workers: workers})
	var out []string
	if s := difftest.Summarize(ref); s != wantSuite {
		out = append(out, fmt.Sprintf("difftest.RunAllConfig: %+v, want %+v", s, wantSuite))
	}
	for i, r := range ref {
		if b.seen[i] != rowKey(r) {
			out = append(out, fmt.Sprintf("case %s: timed rows differ from difftest.RunAllConfig", r.Name))
		}
	}
	for _, name := range b.changed {
		out = append(out, fmt.Sprintf("case %s: rows changed between repetitions", name))
	}
	return out
}

func (b *difftestBench) pass() (pass, []string, error) {
	p := newPass()
	p.zeroKernelCounts()
	var problems []string
	for _, tc := range b.cases {
		var want, got difftest.Row
		p.real(func() { want = difftest.RunCaseConfig(tc, difftest.Config{}) })
		p.units++
		if want.Err != nil || !want.OK() {
			p.failed++
		}
		p.redrive(func() { got = b.redrive.difftestCase(&p, tc) })
		if rowKey(got) != rowKey(want) {
			problems = append(problems, fmt.Sprintf("case %s: re-drive row differs from difftest.RunCaseConfig", tc.Name))
		}
	}
	p.counts["trace.units"] = uint64(p.units)
	return p, problems, nil
}

func (b *difftestBench) close() {}
