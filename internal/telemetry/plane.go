// Package telemetry is the live observability plane for supervised
// campaigns: where internal/trace and internal/metrics are post-hoc
// (you read them after the run exits), telemetry watches a campaign
// *while it runs*.
//
// It hangs off campaign.Observer and records three things:
//
//   - Fleet spans: a wall-clock span layer (campaign → worker →
//     unit-attempt, with steal/backoff/quarantine/checkpoint
//     annotations) exportable as one merged Chrome trace in which a
//     scenario's simulated-cycle kernel events nest under its attempt
//     span (trace.ExportFleetChromeJSON).
//   - Streaming aggregation: each completed unit's metrics observation
//     runs directly against one live registry, which is goroutine-safe
//     (get-or-create under its lock, sharded atomic values). Memory
//     stays constant at any worker count, the aggregate advances per
//     completed unit, and it is byte-identical to a post-hoc merge.
//   - Progress: a JSON-ready fleet summary (units done/retried/
//     quarantined, steals, per-worker state, ETA) behind Progress().
//     The plane keeps no counts: it reads the supervisor's ledger
//     (campaign.Stats), the source of the campaign_* series.
//
// House rules hold: the plane lives entirely on the wall-clock
// supervision side — it never touches the simulated cycle meter — and
// a nil *Plane is a valid disabled plane whose every method no-ops, so
// runs without -serve are byte-identical to runs before this package
// existed.
package telemetry

import (
	"sync"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

// DefaultSpanCapacity bounds the span ring: the most recent spans are
// kept, older ones overwritten and counted dropped — same contract as
// the kernel tracer's ring.
const DefaultSpanCapacity = 4096

// DefaultNestCapacity bounds how many unit-attempts keep their kernel
// event rings for timeline nesting. Kernel rings are the heavy part of
// a timeline; capping them keeps plane memory constant for
// million-unit campaigns.
const DefaultNestCapacity = 64

// DefaultUnitTraceCapacity bounds each nested unit's kernel tracer.
const DefaultUnitTraceCapacity = 1024

// workerState tracks what one worker is doing right now.
type workerState struct {
	state   string // "idle" | "running" | "backoff"
	unit    int
	attempt int
	since   time.Time
}

// openUnit tracks a unit currently being supervised.
type openUnit struct {
	worker       int
	attempt      int
	attemptStart time.Time
	stolen       bool
	lastSpanSeq  uint64 // seq of the last closed attempt span
	hasSpan      bool
	tracer       *trace.Tracer
}

// spanSlot pairs a ring slot with its sequence number so late kernel
// attachment can detect overwritten slots.
type spanSlot struct {
	seq  uint64
	span trace.FleetSpan
}

// Plane is the live telemetry plane. Create with New, pass as
// campaign.Config.Observer, and hand units their kernel tracer and
// metrics sink via UnitTracer / UnitObservation. All methods are
// goroutine-safe and nil-safe.
type Plane struct {
	mu  sync.Mutex
	now func() time.Time

	// campaign identity and wall origin
	kind        string
	start       time.Time
	started     bool
	ended       bool
	interrupted bool
	workers     int

	stats *campaign.Stats // the running campaign's ledger (zero before)

	workerStates []workerState
	open         map[int]*openUnit

	// span + instant rings
	spanCap     int
	spanSeq     uint64
	spans       []spanSlot
	instantCap  int
	instantSeq  uint64
	instants    []trace.FleetInstant
	spanDropped uint64

	// kernel nesting budget
	nestLeft int

	// streaming aggregation
	live *metrics.Registry
	obs  map[int]func(*metrics.Registry)
}

// New returns an enabled plane.
func New() *Plane {
	return &Plane{
		now:        time.Now,
		stats:      &campaign.Stats{},
		spanCap:    DefaultSpanCapacity,
		instantCap: DefaultSpanCapacity,
		nestLeft:   DefaultNestCapacity,
		open:       make(map[int]*openUnit),
		live:       metrics.NewRegistry(),
		obs:        make(map[int]func(*metrics.Registry)),
	}
}

// Enabled reports whether the plane records anything.
func (p *Plane) Enabled() bool { return p != nil }

// Live returns the streaming-aggregated registry (the /metrics view).
// Nil-safe: a disabled plane returns a nil (disabled) registry.
func (p *Plane) Live() *metrics.Registry {
	if p == nil {
		return nil
	}
	return p.live
}

// us converts a wall time to microseconds since campaign start.
func (p *Plane) us(t time.Time) uint64 {
	if t.Before(p.start) {
		return 0
	}
	return uint64(t.Sub(p.start) / time.Microsecond)
}

// pushSpan appends a span to the ring, returning its sequence number.
// Caller holds p.mu.
func (p *Plane) pushSpan(sp trace.FleetSpan) uint64 {
	seq := p.spanSeq
	p.spanSeq++
	if len(p.spans) < p.spanCap {
		p.spans = append(p.spans, spanSlot{seq: seq, span: sp})
		return seq
	}
	slot := &p.spans[int(seq)%p.spanCap]
	if slot.span.Kernel != nil {
		// An evicted nested span frees its kernel budget.
		p.nestLeft++
	}
	*slot = spanSlot{seq: seq, span: sp}
	p.spanDropped++
	return seq
}

// pushInstant appends an annotation to the instant ring. Caller holds
// p.mu.
func (p *Plane) pushInstant(in trace.FleetInstant) {
	seq := p.instantSeq
	p.instantSeq++
	if len(p.instants) < p.instantCap {
		p.instants = append(p.instants, in)
		return
	}
	p.instants[int(seq)%p.instantCap] = in
	p.spanDropped++
}

// CampaignStart implements campaign.Observer.
func (p *Plane) CampaignStart(kind string, workers int, stats *campaign.Stats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kind = kind
	p.workers = workers
	p.stats = stats
	p.start = p.now()
	p.started = true
	p.workerStates = make([]workerState, workers)
	for w := range p.workerStates {
		p.workerStates[w] = workerState{state: "idle", unit: -1, since: p.start}
	}
}

// UnitStart implements campaign.Observer.
func (p *Plane) UnitStart(unit, worker int, stolen bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	ou := p.openEntry(unit)
	ou.worker = worker
	ou.stolen = stolen
	if worker < len(p.workerStates) {
		p.workerStates[worker] = workerState{state: "running", unit: unit, since: now}
	}
	if stolen {
		p.pushInstant(trace.FleetInstant{
			Name: "steal", Cat: "sched", TID: worker + 1, TS: p.us(now),
			Args: map[string]string{"unit": itoa(unit)},
		})
	}
}

// openEntry returns (creating if needed) the open-unit record. Caller
// holds p.mu.
func (p *Plane) openEntry(unit int) *openUnit {
	ou, ok := p.open[unit]
	if !ok {
		ou = &openUnit{worker: -1}
		p.open[unit] = ou
	}
	return ou
}

// AttemptStart implements campaign.Observer.
func (p *Plane) AttemptStart(unit, worker, attempt int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ou := p.openEntry(unit)
	ou.worker = worker
	ou.attempt = attempt
	ou.attemptStart = p.now()
	if worker < len(p.workerStates) {
		p.workerStates[worker].state = "running"
		p.workerStates[worker].unit = unit
		p.workerStates[worker].attempt = attempt
	}
}

// AttemptEnd implements campaign.Observer: closes the attempt span.
func (p *Plane) AttemptEnd(unit, worker, attempt int, failure string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	ou := p.openEntry(unit)
	args := map[string]string{"unit": itoa(unit), "attempt": itoa(attempt)}
	if failure != "" {
		args["failure"] = failure
	}
	if ou.stolen {
		args["stolen"] = "true"
	}
	start := ou.attemptStart
	if start.IsZero() {
		start = now
	}
	ou.lastSpanSeq = p.pushSpan(trace.FleetSpan{
		Name:    "unit " + itoa(unit) + " attempt " + itoa(attempt),
		Cat:     "attempt",
		TID:     worker + 1,
		StartUS: p.us(start),
		DurUS:   p.us(now) - p.us(start),
		Args:    args,
	})
	ou.hasSpan = true
}

// UnitBackoff implements campaign.Observer.
func (p *Plane) UnitBackoff(unit, worker, attempt int, delay time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if worker < len(p.workerStates) {
		p.workerStates[worker].state = "backoff"
	}
	p.pushInstant(trace.FleetInstant{
		Name: "backoff", Cat: "sched", TID: worker + 1, TS: p.us(p.now()),
		Args: map[string]string{
			"unit": itoa(unit), "attempt": itoa(attempt), "delay": delay.String(),
		},
	})
}

// UnitDone implements campaign.Observer: finalizes the unit — attaches
// its kernel trace (if any) to the last attempt span, executes its
// deferred metrics observation against the live registry, and marks a
// quarantine on the timeline.
func (p *Plane) UnitDone(unit, worker int, status campaign.Status, attempts []campaign.Attempt) {
	if p == nil {
		return
	}
	p.mu.Lock()
	ou := p.openEntry(unit)
	delete(p.open, unit)
	obs := p.obs[unit]
	delete(p.obs, unit)

	if ou.tracer != nil && ou.hasSpan {
		slot := &p.spans[int(ou.lastSpanSeq)%p.spanCap]
		if slot.seq == ou.lastSpanSeq {
			if evs := ou.tracer.Events(); len(evs) > 0 {
				slot.span.Kernel = evs
			} else {
				p.nestLeft++ // unused budget returns
			}
		} else {
			p.nestLeft++
		}
	}

	now := p.now()
	if status == campaign.StatusQuarantined {
		p.pushInstant(trace.FleetInstant{
			Name: "quarantine", Cat: "sched", TID: worker + 1, TS: p.us(now),
			Args: map[string]string{"unit": itoa(unit), "failure": lastFailure(attempts)},
		})
	}
	if worker < len(p.workerStates) {
		p.workerStates[worker] = workerState{state: "idle", unit: -1, since: now}
	}

	publish := obs != nil && status == campaign.StatusOK
	p.mu.Unlock()

	// The observation runs outside the plane lock: the registry is
	// goroutine-safe and closures may be arbitrarily heavy.
	if publish {
		obs(p.live)
	}
}

// Checkpoint implements campaign.Observer: marks the journal
// checkpoint on the timeline.
func (p *Plane) Checkpoint(completed uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pushInstant(trace.FleetInstant{
		Name: "checkpoint", Cat: "campaign", TID: 0, TS: p.us(p.now()),
		Args: map[string]string{"completed": utoa(completed)},
	})
}

// CampaignEnd implements campaign.Observer: closes the campaign span.
func (p *Plane) CampaignEnd(interrupted bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	st := p.stats.Load()
	p.ended = true
	p.interrupted = interrupted
	for w := range p.workerStates {
		p.workerStates[w] = workerState{state: "idle", unit: -1, since: now}
	}
	p.pushSpan(trace.FleetSpan{
		Name:    p.kind,
		Cat:     "campaign",
		TID:     0,
		StartUS: 0,
		DurUS:   p.us(now),
		Args: map[string]string{
			"units":       utoa(st.Units),
			"workers":     itoa(p.workers),
			"resumed":     utoa(st.Resumed),
			"interrupted": boolStr(interrupted),
		},
	})
}

// UnitTracer returns a kernel tracer for unit i's scenario run, to be
// attached to its kernels so the unit's events nest under its attempt
// span in the fleet timeline. Returns nil (a valid disabled tracer)
// once the nesting budget is spent — memory stays bounded no matter
// how many units run. Safe to call from Source.Run goroutines.
func (p *Plane) UnitTracer(unit int) *trace.Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Only open units get tracers: a goroutine abandoned by a timeout
	// may call this after UnitDone, and must not resurrect the entry.
	ou, ok := p.open[unit]
	if !ok {
		return nil
	}
	if ou.tracer != nil {
		return ou.tracer
	}
	if p.nestLeft <= 0 {
		return nil
	}
	p.nestLeft--
	ou.tracer = trace.New(DefaultUnitTraceCapacity)
	return ou.tracer
}

// UnitObservation defers a metrics observation for unit i: fn runs
// against the live registry when — and only when — the unit completes
// StatusOK. Attempts abandoned by timeout can therefore
// never double-publish: their goroutines may still be running, but
// only the terminal attempt's observation is executed, exactly once.
// The last registration per unit wins (a retry replaces the abandoned
// attempt's closure).
func (p *Plane) UnitObservation(unit int, fn func(*metrics.Registry)) {
	if p == nil || fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Registrations are accepted only while the unit is open — a late
	// registration from an abandoned attempt goroutine is dropped.
	if _, ok := p.open[unit]; !ok {
		return
	}
	p.obs[unit] = fn
}

// Timeline snapshots the fleet trace so far — closed spans, open
// attempts rendered up to now, annotations, and track names.
func (p *Plane) Timeline() trace.FleetTimeline {
	var tl trace.FleetTimeline
	if p == nil {
		return tl
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	tl.Tracks = map[int]string{0: "campaign"}
	for w := 0; w < p.workers; w++ {
		tl.Tracks[w+1] = "worker " + itoa(w)
	}
	tl.Dropped = p.spanDropped
	for _, slot := range p.spans {
		tl.Spans = append(tl.Spans, slot.span)
	}
	if p.started && !p.ended {
		tl.Spans = append(tl.Spans, trace.FleetSpan{
			Name: p.kind, Cat: "campaign", TID: 0,
			StartUS: 0, DurUS: p.us(now),
			Args: map[string]string{"open": "true"},
		})
		for unit, ou := range p.open {
			if ou.attemptStart.IsZero() {
				continue
			}
			tl.Spans = append(tl.Spans, trace.FleetSpan{
				Name: "unit " + itoa(unit) + " attempt " + itoa(ou.attempt),
				Cat:  "attempt", TID: ou.worker + 1,
				StartUS: p.us(ou.attemptStart),
				DurUS:   p.us(now) - p.us(ou.attemptStart),
				Args:    map[string]string{"open": "true", "unit": itoa(unit)},
			})
		}
	}
	tl.Instants = append(tl.Instants, p.instants...)
	return tl
}

// lastFailure names the final attempt's failure kind.
func lastFailure(attempts []campaign.Attempt) string {
	if len(attempts) == 0 {
		return ""
	}
	return attempts[len(attempts)-1].Failure
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
