package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

var _ campaign.Observer = (*Plane)(nil)

// fakeNow installs a deterministic clock advancing stepUS per call.
func fakeNow(p *Plane, stepUS int64) *atomic.Int64 {
	var calls atomic.Int64
	base := time.Unix(1000, 0)
	p.now = func() time.Time {
		n := calls.Add(1)
		return base.Add(time.Duration(n*stepUS) * time.Microsecond)
	}
	return &calls
}

// A nil plane must be a fully disabled observer.
func TestNilPlaneNoOps(t *testing.T) {
	var p *Plane
	p.CampaignStart("x", 1, &campaign.Stats{Units: 1})
	p.UnitStart(0, 0, false)
	p.AttemptStart(0, 0, 0)
	p.AttemptEnd(0, 0, 0, "")
	p.UnitBackoff(0, 0, 0, time.Second)
	p.UnitDone(0, 0, campaign.StatusOK, nil)
	p.Checkpoint(1)
	p.CampaignEnd(false)
	p.UnitObservation(0, func(*metrics.Registry) {})
	if p.UnitTracer(0) != nil {
		t.Fatal("nil plane returned a tracer")
	}
	if p.Live() != nil {
		t.Fatal("nil plane returned a registry")
	}
	if pr := p.Progress(); pr.Units != 0 {
		t.Fatal("nil plane returned progress")
	}
	if tl := p.Timeline(); len(tl.Spans) != 0 {
		t.Fatal("nil plane returned spans")
	}
}

// scriptClock is the supervisor clock of TestPlaneSpansAndProgress:
// backoff sleeps return at once (FakeClock), and only the fireOn-th
// timeout timer fires — immediately — while every other never does.
type scriptClock struct {
	campaign.FakeClock
	fireOn int64
	calls  atomic.Int64
	// armed closes once the first fireOn-1 timers exist; retrying
	// closes at the one backoff sleep.
	armed, retrying chan struct{}
}

func (c *scriptClock) Sleep(d time.Duration) {
	c.FakeClock.Sleep(d)
	close(c.retrying)
}

func (c *scriptClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	switch c.calls.Add(1) {
	case c.fireOn - 1:
		close(c.armed)
	case c.fireOn:
		ch <- time.Time{}
	}
	return ch
}

// unitDoneHook runs hook after the plane has seen a unit terminate.
type unitDoneHook struct {
	*Plane
	hook func(unit int)
}

func (h unitDoneHook) UnitDone(unit, worker int, status campaign.Status, attempts []campaign.Attempt) {
	h.Plane.UnitDone(unit, worker, status, attempts)
	h.hook(unit)
}

// A real supervised campaign — one unit resumed from the journal, one
// stolen, one timed out, backed off, crashed and quarantined — must
// produce attempt spans on the right tracks, steal/backoff/quarantine/
// checkpoint instants and a closed campaign span, and a Progress that
// reads the supervisor's own ledger.
//
// The schedule is forced: two workers split units 1..3 as [1] and
// [2,3]. Unit 1 returns once both first timeout timers exist, so worker
// 1 already holds unit 2 and worker 0 must steal unit 3. Unit 3's first
// attempt gets the third timer, which fires (a timeout) while the
// attempt waits for its cancellation or the backoff; its retry, made
// after the backoff, panics. Unit 2 waits until unit 3 has terminated.
func TestPlaneSpansAndProgress(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	clk := &scriptClock{fireOn: 3, armed: make(chan struct{}), retrying: make(chan struct{})}
	unit3Done := make(chan struct{})
	src := campaign.Source[int]{
		N: 4, Kind: "faultcamp", Fingerprint: []byte("plane-test"),
		Run: func(ctx context.Context, i int) (int, error) {
			switch i {
			case 1:
				<-clk.armed
			case 2:
				<-unit3Done
			case 3:
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-clk.retrying:
					panic("unit 3 crashes on its retry")
				}
			}
			return i, nil
		},
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (v int, err error) { err = json.Unmarshal(b, &v); return },
	}
	if _, err := campaign.Supervise(campaign.Config{Workers: 1, Journal: journal, StopAfter: 1}, src); err != nil {
		t.Fatal(err)
	}

	p := New()
	fakeNow(p, 1000) // 1ms per observation
	var mid Progress
	obs := unitDoneHook{Plane: p, hook: func(unit int) {
		if unit == 3 {
			mid = p.Progress()
			close(unit3Done)
		}
	}}
	run, err := campaign.Supervise(campaign.Config{
		Workers: 2, Timeout: time.Second, Retries: 1, BackoffBase: 10 * time.Millisecond,
		Clock: clk, Journal: journal, Observer: obs,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Sleeps(); len(got) != 1 || got[0] != 10*time.Millisecond {
		t.Fatalf("backoff sleeps %v, want one of 10ms", got)
	}
	st := run.Stats
	if st.Resumed != 1 || st.Steals != 1 || st.Timeouts != 1 || st.Crashes != 1 || st.Retries != 1 || st.Quarantined != 1 {
		t.Fatalf("schedule not forced as planned: %+v", st)
	}

	// Mid-run: the resumed unit and units 1 and 3 are done.
	if !mid.Running || mid.Done != 3 || mid.OK != 2 || mid.Quarantined != 1 ||
		mid.Retries != st.Retries || mid.Timeouts != st.Timeouts || mid.Crashes != st.Crashes || mid.Steals != st.Steals {
		t.Fatalf("mid-run progress wrong: %+v", mid)
	}
	if mid.Resumed != 1 || mid.Units != 4 || mid.Workers != 2 {
		t.Fatalf("identity wrong: %+v", mid)
	}
	if mid.ETAMS < 0 {
		t.Fatalf("ETA should be estimable after completions: %+v", mid)
	}
	if got := len(mid.PerWorker); got != 2 {
		t.Fatalf("want 2 worker states, got %d", got)
	}

	pr := p.Progress()
	if pr.Running || pr.ETAMS != 0 {
		t.Fatalf("post-end progress wrong: %+v", pr)
	}
	if pr.Done != st.Resumed+st.Completed || pr.OK+pr.Quarantined != pr.Done || pr.Quarantined != st.Quarantined ||
		pr.Retries != st.Retries || pr.Checkpoints != st.Checkpoints || pr.Steals != st.Steals {
		t.Fatalf("post-end progress %+v disagrees with the ledger %+v", pr, st)
	}

	tl := p.Timeline()
	if tl.Tracks[0] != "campaign" || tl.Tracks[1] != "worker 0" || tl.Tracks[2] != "worker 1" {
		t.Fatalf("tracks wrong: %v", tl.Tracks)
	}
	var attempts, campaigns int
	for _, sp := range tl.Spans {
		switch sp.Cat {
		case "attempt":
			attempts++
			if sp.TID == 0 {
				t.Fatalf("attempt span on campaign track: %+v", sp)
			}
		case "campaign":
			campaigns++
		}
	}
	if attempts != 4 || campaigns != 1 {
		t.Fatalf("want 4 attempt spans and 1 campaign span, got %d/%d", attempts, campaigns)
	}
	names := map[string]int{}
	for _, in := range tl.Instants {
		names[in.Name]++
	}
	if names["steal"] != 1 || names["backoff"] != 1 || names["quarantine"] != 1 ||
		uint64(names["checkpoint"]) != st.Checkpoints || st.Checkpoints == 0 {
		t.Fatalf("instants wrong: %v (ledger checkpoints %d)", names, st.Checkpoints)
	}
}

// UnitTracer events must surface nested inside the unit's final attempt
// span in the exported timeline.
func TestPlaneTimelineNestsUnitTrace(t *testing.T) {
	p := New()
	fakeNow(p, 1000)
	p.CampaignStart("faultcamp", 1, &campaign.Stats{Units: 1})
	p.UnitStart(0, 0, false)
	p.AttemptStart(0, 0, 0)
	tr := p.UnitTracer(0)
	if tr == nil {
		t.Fatal("no tracer from fresh plane")
	}
	tr.Emit(trace.Event{Cycle: 10, Kind: trace.KindSyscallEnter, Proc: 1, Name: "app", Label: "command"})
	tr.Emit(trace.Event{Cycle: 90, Kind: trace.KindSyscallExit, Proc: 1, Name: "app", Label: "command"})
	p.AttemptEnd(0, 0, 0, "")
	p.UnitDone(0, 0, campaign.StatusOK, nil)
	p.CampaignEnd(false)

	var b strings.Builder
	if err := trace.ExportFleetChromeJSON(&b, p.Timeline()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"kernel:syscall-enter"`) || !strings.Contains(out, `"kernel:syscall-exit"`) {
		t.Fatalf("kernel events not nested in timeline:\n%s", out)
	}

	// The nesting budget is finite: after DefaultNestCapacity units
	// retain kernel rings, further units get no tracer. Unit 0 above
	// already consumed one slot.
	for i := 1; i < DefaultNestCapacity; i++ {
		p.UnitStart(i, 0, false)
		p.AttemptStart(i, 0, 0)
		utr := p.UnitTracer(i)
		if utr == nil {
			t.Fatalf("budget exhausted early at unit %d", i)
		}
		utr.Emit(trace.Event{Cycle: 1, Kind: trace.KindFault})
		p.AttemptEnd(i, 0, 0, "")
		p.UnitDone(i, 0, campaign.StatusOK, nil)
	}
	over := DefaultNestCapacity
	p.UnitStart(over, 0, false)
	p.AttemptStart(over, 0, 0)
	if p.UnitTracer(over) != nil {
		t.Fatal("nest budget did not exhaust")
	}
	// Tracers for units that are not open must not resurrect entries.
	if p.UnitTracer(12345) != nil {
		t.Fatal("closed unit got a tracer")
	}
}

// An observation registered by an attempt that later times out must not
// publish; only the terminal OK attempt's observation runs, once.
func TestUnitObservationPublishesOnTerminalOnly(t *testing.T) {
	p := New()
	p.CampaignStart("x", 1, &campaign.Stats{Units: 2})

	p.UnitStart(0, 0, false)
	p.AttemptStart(0, 0, 0)
	p.UnitObservation(0, func(r *metrics.Registry) { r.Counter("stale_total").Inc() })
	p.AttemptEnd(0, 0, 0, campaign.FailTimeout)
	p.AttemptStart(0, 0, 1)
	p.UnitObservation(0, func(r *metrics.Registry) { r.Counter("fresh_total").Inc() })
	p.AttemptEnd(0, 0, 1, "")
	p.UnitDone(0, 0, campaign.StatusOK, []campaign.Attempt{{Failure: campaign.FailTimeout}})

	// A quarantined unit publishes nothing.
	p.UnitStart(1, 0, false)
	p.AttemptStart(1, 0, 0)
	p.UnitObservation(1, func(r *metrics.Registry) { r.Counter("poison_total").Inc() })
	p.AttemptEnd(1, 0, 0, campaign.FailError)
	p.UnitDone(1, 0, campaign.StatusQuarantined, []campaign.Attempt{{Failure: campaign.FailError}})

	p.CampaignEnd(false)
	snap := p.Live().Snapshot()
	vals := map[string]uint64{}
	for _, cp := range snap.Counters {
		vals[cp.ID] = cp.Value
	}
	if vals["fresh_total"] != 1 || vals["stale_total"] != 0 || vals["poison_total"] != 0 {
		t.Fatalf("observation discipline broken: %v", vals)
	}
}

// End-to-end through a real supervised campaign: the streaming
// aggregate must be identical at any worker count, and equal to what a
// post-hoc merge would produce.
func TestStreamingAggregateWorkerCountInvariant(t *testing.T) {
	const n = 40
	runCampaign := func(workers int) string {
		p := New()
		attempts := make([]atomic.Int32, n)
		src := campaign.Source[int]{
			N:    n,
			Kind: "agg-test",
			Run: func(ctx context.Context, i int) (int, error) {
				p.UnitObservation(i, func(r *metrics.Registry) {
					r.Counter("units_run_total").Inc()
					r.Counter("weight_total").Add(uint64(i))
					r.Histogram("unit_weight").Observe(uint64(i * 3))
				})
				// Every 7th unit fails its first attempt, exercising the
				// retry path; it succeeds on the retry, so every unit
				// still publishes exactly once.
				if i%7 == 3 && attempts[i].Add(1) == 1 {
					return 0, errors.New("flaky")
				}
				return i, nil
			},
		}
		run, err := campaign.Supervise(campaign.Config{
			Workers: workers, Retries: 2, Observer: p,
			CheckpointEvery: 4,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		if run.Stats.Completed != n {
			t.Fatalf("completed %d != %d", run.Stats.Completed, n)
		}
		var b strings.Builder
		if err := p.Live().ExportPrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	want := runCampaign(1)
	for _, w := range []int{2, 4, 8} {
		if got := runCampaign(w); got != want {
			t.Fatalf("aggregate differs at %d workers:\n--- 1 worker ---\n%s--- %d workers ---\n%s", w, want, w, got)
		}
	}

	// The single-worker aggregate must equal a direct post-hoc registry.
	posthoc := metrics.NewRegistry()
	for i := 0; i < n; i++ {
		posthoc.Counter("units_run_total").Inc()
		posthoc.Counter("weight_total").Add(uint64(i))
		posthoc.Histogram("unit_weight").Observe(uint64(i * 3))
	}
	var b strings.Builder
	if err := posthoc.ExportPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("streaming aggregate != post-hoc:\n--- post-hoc ---\n%s--- streaming ---\n%s", b.String(), want)
	}
}

// The TTY renderer writes in-place lines and clears on Stop.
func TestTTYRendersAndClears(t *testing.T) {
	p := New()
	p.CampaignStart("tty-test", 2, &campaign.Stats{Units: 10})
	var buf lockedBuffer
	tty := StartTTY(&buf, p, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tty.Stop()
	out := buf.String()
	if !strings.Contains(out, "tty-test 0/10") {
		t.Fatalf("tty output missing progress line: %q", out)
	}
	if !strings.HasSuffix(out, "\r") {
		t.Fatalf("tty did not clear on stop: %q", out)
	}
	if StartTTY(nil, nil, 0) != nil {
		t.Fatal("nil plane should not start a TTY")
	}
}

// lockedBuffer is a goroutine-safe strings.Builder for watching the
// TTY goroutine's output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
