package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/faultinject"
	"ticktock/internal/telemetry"
)

// unitTimeout is the supervisor's per-attempt wall-clock bound; a unit
// takes milliseconds, so it only ever fires on a hang.
const unitTimeout = 30 * time.Second

// observed runs the faultcamp scenarios as supervised campaigns with
// every durability and observability layer on: faultinject.UnitsTelemetry
// under campaign.Supervise, an fsync'd resume journal, a telemetry plane
// and flight recording.
type observed struct {
	e        env
	dir      string
	journals int
	// first is campaign 0 as the timed phase produced it.
	first []faultinject.Result
}

// firstDispatch notes when the supervisor dispatches its first unit.
type firstDispatch struct {
	campaign.Observer
	once sync.Once
	at   time.Time
}

func (f *firstDispatch) UnitStart(unit, worker int, stolen bool) {
	f.once.Do(func() { f.at = time.Now() })
	f.Observer.UnitStart(unit, worker, stolen)
}

// setupObserved creates the journal directory and starts campaign 0
// until its first unit is dispatched; that moment ends the set-up, so
// scenario generation, the plane and journal creation all count.
func setupObserved(e env) (runner, time.Time, error) {
	dir, err := os.MkdirTemp(e.workdir, "observed-")
	if err != nil {
		return nil, time.Time{}, err
	}
	b := &observed{e: e, dir: dir}
	sup, src, _, err := b.start(0)
	if err != nil {
		b.close()
		return nil, time.Time{}, err
	}
	watch := &firstDispatch{Observer: sup.Observer}
	sup.Observer = watch
	sup.StopAfter = 1
	if _, err := campaign.Supervise(sup, src); err != nil {
		b.close()
		return nil, time.Time{}, err
	}
	return b, watch.at, nil
}

// start sets up campaign c the way cmd/faultcamp -resume -serve -replay
// does: a telemetry plane as the observer, a fresh journal, flight
// recording on.
func (b *observed) start(c int) (campaign.Config, campaign.Source[faultinject.Result], faultinject.Config, error) {
	cfg := campaignConfig(b.e.seed, c)
	cfg.Workers = workers
	cfg.Record = true
	plane := telemetry.New()
	src, err := faultinject.UnitsTelemetry(cfg, plane)
	b.journals++
	sup := campaign.Config{
		Workers:  workers,
		Timeout:  unitTimeout,
		Retries:  1,
		Journal:  filepath.Join(b.dir, fmt.Sprintf("campaign-%05d.jsonl", b.journals)),
		Observer: plane,
	}
	return sup, src, cfg, err
}

// timeUnits wraps src.Run so every unit call reports its wall time.
func timeUnits(src *campaign.Source[faultinject.Result], record func(time.Duration)) {
	run := src.Run
	src.Run = func(ctx context.Context, i int) (faultinject.Result, error) {
		t := time.Now()
		r, err := run(ctx, i)
		record(time.Since(t))
		return r, err
	}
}

// outcomesFailed counts units a supervised run quarantined or whose
// result errored or broke isolation.
func outcomesFailed(outcomes []campaign.Outcome[faultinject.Result]) int {
	n := 0
	for _, o := range outcomes {
		if o.Status != campaign.StatusOK || scenarioFailed(o.Result) {
			n++
		}
	}
	return n
}

func (b *observed) measure(deadline time.Time, minUnits int) (loop, error) {
	var mu sync.Mutex
	var l loop
	b.first = nil
	start := time.Now()
	for c := 0; time.Now().Before(deadline) || len(l.samples) < minUnits; c++ {
		sup, src, _, err := b.start(c)
		if err != nil {
			return loop{}, err
		}
		timeUnits(&src, func(d time.Duration) {
			mu.Lock()
			l.samples = append(l.samples, float64(d.Nanoseconds())/1e6)
			mu.Unlock()
		})
		run, err := campaign.Supervise(sup, src)
		if err != nil {
			return loop{}, fmt.Errorf("campaign %d: %w", c, err)
		}
		l.failed += outcomesFailed(run.Outcomes)
		if c == 0 {
			for _, o := range run.Outcomes {
				b.first = append(b.first, o.Result)
			}
		}
	}
	l.elapsed = time.Since(start)
	return l, nil
}

func (b *observed) identity() int { return campaignSize }

func (b *observed) check() []string { return checkCampaign(b.e, b.first) }

// pass runs campaign 0 twice, with Source.Run bare and then wrapped in
// the per-unit timer, and checks the two give the same outcomes.
func (b *observed) pass() (pass, []string, error) {
	p := newPass()
	sup, src, _, err := b.start(0)
	if err != nil {
		return p, nil, err
	}
	t := time.Now()
	bare, err := campaign.Supervise(sup, src)
	if err != nil {
		return p, nil, err
	}
	p.untraced = time.Since(t).Seconds()

	sup, src, cfg, err := b.start(0)
	if err != nil {
		return p, nil, err
	}
	var mu sync.Mutex
	var unitS float64
	timeUnits(&src, func(d time.Duration) {
		mu.Lock()
		unitS += d.Seconds()
		mu.Unlock()
	})
	a := heapAllocBytes()
	t = time.Now()
	traced, err := campaign.Supervise(sup, src)
	if err != nil {
		return p, nil, err
	}
	p.traced = time.Since(t).Seconds()
	p.alloc = heapAllocBytes() - a

	p.covered = unitS / workers // worker-seconds inside units, per worker
	p.vals["campaign.unit.s"] = unitS
	p.vals["campaign.overhead.s"] = workers*p.traced - unitS
	p.vals["campaign.steals"] = float64(traced.Stats.Steals)
	p.counts["campaign.checkpoints"] = traced.Stats.Checkpoints
	rep := faultinject.ReportFromRun(cfg, traced)
	for _, t := range []faultinject.Tally{rep.ARM, rep.RV} {
		c := t.Total()
		p.counts["faultinject.injected"] += c.Injected
		p.counts["faultinject.detected"] += c.Detected
		p.counts["faultinject.masked"] += c.Masked
		p.counts["faultinject.benign"] += c.Benign
		p.counts["faultinject.skipped"] += c.Skipped
	}
	p.units = len(traced.Outcomes)
	p.failed = outcomesFailed(traced.Outcomes)
	p.counts["trace.units"] = uint64(p.units)

	var problems []string
	for i, o := range traced.Outcomes {
		if o.Status != bare.Outcomes[i].Status || !sameJSON(o.Result, bare.Outcomes[i].Result) {
			problems = append(problems, fmt.Sprintf("%s: timed Source.Run gave another outcome than the bare one", o.Key))
		}
	}
	return p, problems, nil
}

func (b *observed) close() { os.RemoveAll(b.dir) }
