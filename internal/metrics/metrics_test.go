package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded")
	}
	h.Merge(NewHistogram())
	var p *Profile
	p.Add(10, "a", "b")
	if p.Total() != 0 || p.Samples() != nil || len(p.FoldedLines()) != 0 {
		t.Fatal("nil profile recorded")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	r.Merge(NewRegistry())
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	// The full nil chain a disabled instrumentation site exercises.
	r.Counter("hot", L("k", "v")).Add(3)
	r.Histogram("hot_cycles").Observe(3)
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1 << 62, 63}, {1<<63 - 1, 63}, {1 << 63, 64}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		// Every sample must fall at or under its bucket's upper bound.
		if ub := BucketUpperBound(BucketOf(c.v)); c.v > ub {
			t.Errorf("value %d above its bucket bound %d", c.v, ub)
		}
	}
}

func TestHistogramZeroSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 0 {
		t.Fatalf("count=%d sum=%d after two zero samples", h.Count(), h.Sum())
	}
	if h.Bucket(0) != 2 {
		t.Fatalf("zero samples landed in bucket %d counts", h.Bucket(0))
	}
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("min=%d max=%d mean=%f", h.Min(), h.Max(), h.Mean())
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("p99 of zeros = %d", q)
	}
}

func TestHistogramTopBucketOverflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxUint64)
	h.Observe(1 << 63)
	if h.Bucket(NumBuckets-1) != 2 {
		t.Fatalf("top bucket holds %d samples, want 2", h.Bucket(NumBuckets-1))
	}
	if h.Max() != math.MaxUint64 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Quantile(1) != math.MaxUint64 {
		t.Fatalf("p100 = %d", h.Quantile(1))
	}
	// Sum wraps modulo 2^64 — documented behaviour of uint64 cycle math;
	// count must still be exact.
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramMinMaxQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{5, 100, 1000, 3, 70000} {
		h.Observe(v)
	}
	if h.Min() != 3 || h.Max() != 70000 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m != (5+100+1000+3+70000)/5.0 {
		t.Fatalf("mean=%f", m)
	}
	// p50 of 5 samples is the 3rd smallest (100) -> bucket bound 127.
	if q := h.Quantile(0.5); q != 127 {
		t.Fatalf("p50=%d want 127", q)
	}
}

func TestHistogramMergeDisjointAndOverlapping(t *testing.T) {
	// Disjoint: a holds small samples, b holds large ones.
	a, b := NewHistogram(), NewHistogram()
	a.Observe(1)
	a.Observe(2)
	b.Observe(1 << 20)
	a.Merge(b)
	if a.Count() != 3 || a.Sum() != 3+(1<<20) {
		t.Fatalf("disjoint merge: count=%d sum=%d", a.Count(), a.Sum())
	}
	if a.Min() != 1 || a.Max() != 1<<20 {
		t.Fatalf("disjoint merge extremes: min=%d max=%d", a.Min(), a.Max())
	}

	// Overlapping: both sides populate the same buckets.
	c, d := NewHistogram(), NewHistogram()
	for i := 0; i < 10; i++ {
		c.Observe(100)
		d.Observe(120)
	}
	c.Merge(d)
	if c.Count() != 20 || c.Bucket(BucketOf(100)) != 20 {
		t.Fatalf("overlapping merge: count=%d bucket=%d", c.Count(), c.Bucket(BucketOf(100)))
	}

	// Merging an empty histogram must not disturb extremes.
	before := c.Min()
	c.Merge(NewHistogram())
	if c.Min() != before || c.Count() != 20 {
		t.Fatal("empty merge disturbed the target")
	}
}

func TestRegistryMergeDisjointAndOverlapping(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x", L("f", "1")).Add(5)
	b.Counter("x", L("f", "1")).Add(7) // overlapping series
	b.Counter("y").Add(11)             // disjoint series
	b.Histogram("h", L("f", "1")).Observe(64)
	a.Histogram("h", L("f", "1")).Observe(1)
	a.Merge(b)
	if got := a.Counter("x", L("f", "1")).Value(); got != 12 {
		t.Fatalf("overlapping counter merged to %d, want 12", got)
	}
	if got := a.Counter("y").Value(); got != 11 {
		t.Fatalf("disjoint counter merged to %d, want 11", got)
	}
	h := a.Histogram("h", L("f", "1"))
	if h.Count() != 2 || h.Min() != 1 || h.Max() != 64 {
		t.Fatalf("merged histogram count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	// The source registry is untouched.
	if got := b.Counter("x", L("f", "1")).Value(); got != 7 {
		t.Fatalf("merge mutated the source: %d", got)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("m", L("b", "2"), L("a", "1"))
	c2 := r.Counter("m", L("a", "1"), L("b", "2"))
	if c1 != c2 {
		t.Fatal("label order created distinct series")
	}
	c1.Inc()
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].ID != `m{a="1",b="2"}` {
		t.Fatalf("snapshot = %+v", snap.Counters)
	}
}

func TestConcurrentRecordAndMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Histogram("lat")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := NewRegistry()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(uint64(i))
				local.Counter("ops").Inc()
			}
			r.Merge(local) // concurrent merge into the shared registry
			_ = w
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*per {
		t.Fatalf("ops = %d, want %d", got, 2*workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("lat count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != per-1 {
		t.Fatalf("lat extremes min=%d max=%d", h.Min(), h.Max())
	}
}

func TestProfileAddMergeTotal(t *testing.T) {
	p := NewProfile()
	p.Add(10, "ticktock", "kernel", "create")
	p.Add(5, "ticktock", "blink", "syscall/command")
	p.Add(5, "ticktock", "blink", "syscall/command") // accumulates
	p.Add(0, "ticktock", "kernel", "idle")           // zero weight dropped
	if p.Total() != 20 {
		t.Fatalf("total = %d", p.Total())
	}
	q := NewProfile()
	q.Add(3, "ticktock", "kernel", "create")
	p.Merge(q)
	if p.Samples()["ticktock;kernel;create"] != 13 {
		t.Fatalf("merge: %v", p.Samples())
	}
	lines := p.FoldedLines()
	if len(lines) != 2 || lines[0] != "ticktock;blink;syscall/command 10" {
		t.Fatalf("folded lines: %v", lines)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Value() != uint64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	var c Counter
	h := NewHistogram()
	p := NewProfile()
	p.AddStack("warm;path", 1)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(123456)
	}); n != 0 {
		t.Fatalf("record hot path allocates %.1f objects/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.AddStack("warm;path", 1)
	}); n != 0 {
		t.Fatalf("profile hot path allocates %.1f objects/op", n)
	}
}

// Snapshot must be safe to call while other goroutines Add/Observe/
// Publish into the same registry (run under -race).
func TestSnapshotUnderConcurrentPublish(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("spin_total", L("g", string(rune('a'+g))))
			h := r.Histogram("spin_cycles")
			gauge := r.Gauge("spin_gauge")
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Observe(i % 4096)
				gauge.Add(1)
				// Exercise get-or-create concurrently with Snapshot too.
				r.Counter("late_total", L("i", string(rune('a'+int(i%8))))).Inc()
			}
		}(g)
	}
	prev := map[string]uint64{}
	for i := 0; i < 50; i++ {
		// Counters are monotone: each snapshot must dominate the last.
		for _, cp := range r.Snapshot().Counters {
			if cp.Value < prev[cp.ID] {
				t.Errorf("counter %s went backwards: %d after %d", cp.ID, cp.Value, prev[cp.ID])
			}
			prev[cp.ID] = cp.Value
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0.
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %d, want 0", q, v)
		}
	}

	// Single sample: all quantiles land in its bucket.
	h = NewHistogram()
	h.Observe(100)
	want := BucketUpperBound(BucketOf(100))
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != want {
			t.Fatalf("single-sample Quantile(%v) = %d, want %d", q, v, want)
		}
	}

	// Two buckets: q=0 hits the low bucket, q=1 the high one.
	h = NewHistogram()
	h.Observe(1)
	h.Observe(1 << 30)
	if lo, hi := h.Quantile(0), h.Quantile(1); lo >= hi {
		t.Fatalf("Quantile(0)=%d should be below Quantile(1)=%d", lo, hi)
	}
	if v := h.Quantile(1); v != BucketUpperBound(BucketOf(1<<30)) {
		t.Fatalf("Quantile(1) = %d, want top sample bucket bound %d", v, BucketUpperBound(BucketOf(1<<30)))
	}
}
