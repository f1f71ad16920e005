package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ticktock/internal/metrics"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindFault})
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Count(KindFault) != 0 {
		t.Fatal("nil tracer accounted events")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
	var b strings.Builder
	if err := tr.ExportChromeJSONWindow(&b, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := tr.ExportText(&b); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
}

func TestRingWraparoundAndOverflowAccounting(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(100 + i), Kind: KindContextSwitch, Proc: KernelProc})
	}
	if got := tr.Emitted(); got != 10 {
		t.Fatalf("emitted=%d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped=%d, want 6 (capacity 4)", got)
	}
	if got := tr.Count(KindContextSwitch); got != 10 {
		t.Fatalf("counter mirror=%d, want 10 despite overwrites", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered=%d, want 4", len(evs))
	}
	// The survivors are the newest four, in emission order.
	for i, e := range evs {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Cycle != 100+wantSeq {
			t.Fatalf("event %d: seq=%d cycle=%d, want seq=%d cycle=%d",
				i, e.Seq, e.Cycle, wantSeq, 100+wantSeq)
		}
	}
}

func TestNoDropsBelowCapacity(t *testing.T) {
	tr := New(8)
	for i := 0; i < 8; i++ {
		tr.Emit(Event{Kind: KindSysTick})
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped=%d below capacity", tr.Dropped())
	}
	if got := len(tr.Events()); got != 8 {
		t.Fatalf("buffered=%d, want 8", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(0)
	if tr.cap != DefaultCapacity {
		t.Fatalf("cap=%d, want %d", tr.cap, DefaultCapacity)
	}
}

func TestResetClearsState(t *testing.T) {
	tr := New(2)
	tr.Emit(Event{Kind: KindFault})
	tr.Emit(Event{Kind: KindFault})
	tr.Emit(Event{Kind: KindFault})
	tr.Reset()
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Count(KindFault) != 0 || len(tr.Events()) != 0 {
		t.Fatal("reset left state behind")
	}
	tr.Emit(Event{Kind: KindBrk})
	if tr.Emitted() != 1 || tr.Events()[0].Seq != 0 {
		t.Fatal("tracer unusable after reset")
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{Cycle: 10, Kind: KindSyscallEnter, Proc: 0, Name: "blink", A: 1, Label: "command"})
	tr.Emit(Event{Cycle: 30, Kind: KindSyscallExit, Proc: 0, Name: "blink", A: 1, B: 0, Label: "command"})
	tr.Emit(Event{Cycle: 40, Kind: KindContextSwitch, Proc: 0, Name: "blink", A: 1})
	tr.Emit(Event{Cycle: 55, Kind: KindFault, Proc: 1, Name: "crashy", Label: "mpu violation"})

	var b strings.Builder
	if err := tr.ExportChromeJSONWindow(&b, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Cat   string            `json:"cat"`
			Phase string            `json:"ph"`
			TS    uint64            `json:"ts"`
			PID   int               `json:"pid"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		Emitted uint64 `json:"emitted"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(out.TraceEvents) != 4 || out.Emitted != 4 || out.Dropped != 0 {
		t.Fatalf("events=%d emitted=%d dropped=%d", len(out.TraceEvents), out.Emitted, out.Dropped)
	}
	if out.TraceEvents[0].Phase != "B" || out.TraceEvents[1].Phase != "E" {
		t.Fatalf("syscall phases=%s/%s, want B/E", out.TraceEvents[0].Phase, out.TraceEvents[1].Phase)
	}
	if out.TraceEvents[0].Name != "syscall:command" {
		t.Fatalf("name=%q", out.TraceEvents[0].Name)
	}
	if out.TraceEvents[2].Phase != "i" || out.TraceEvents[3].Phase != "i" {
		t.Fatal("non-syscall events must be instants")
	}
	if out.TraceEvents[3].TID != 2 {
		t.Fatalf("tid=%d, want proc+1=2", out.TraceEvents[3].TID)
	}
	if out.TraceEvents[2].TS != 40 {
		t.Fatalf("ts=%d, want the cycle reading 40", out.TraceEvents[2].TS)
	}
	if out.TraceEvents[3].Args["label"] != "mpu violation" {
		t.Fatalf("args=%v", out.TraceEvents[3].Args)
	}
}

func TestTextExportShape(t *testing.T) {
	tr := New(4)
	tr.Emit(Event{Cycle: 7, Kind: KindGrantAlloc, Proc: 2, Name: "grants", A: 32, B: 0x2000_1000})
	tr.Emit(Event{Cycle: 9, Kind: KindSysTick, Proc: KernelProc})
	txt := tr.TextDump()
	for _, want := range []string{"grant-alloc", "size=32 addr=0x20001000", "2/grants", "systick", "kernel"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text dump missing %q:\n%s", want, txt)
		}
	}
	// Overflow note appears once the ring wraps.
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindSysTick, Proc: KernelProc})
	}
	if !strings.Contains(tr.TextDump(), "events overwritten") {
		t.Fatal("text dump missing overflow note")
	}
}

func TestSideBySideMarksDifferences(t *testing.T) {
	out := SideBySide("left", "same\nonly-left", "right", "same\nonly-right", 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], " same") || strings.Contains(lines[2], ">") {
		t.Fatalf("equal line marked: %q", lines[2])
	}
	if !strings.Contains(lines[3], ">") {
		t.Fatalf("diff line unmarked: %q", lines[3])
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: KindContextSwitch})
			}
		}()
	}
	wg.Wait()
	if got := tr.Emitted(); got != 8000 {
		t.Fatalf("emitted=%d, want 8000", got)
	}
	if got := tr.Count(KindContextSwitch); got != 8000 {
		t.Fatalf("count=%d, want 8000", got)
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("buffered=%d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestDroppedUnexportedAccounting covers the ring-overwrite counter: an
// overwritten event counts as dropped-unexported only if nothing ever
// read it via Events(). Overwrites of already-exported events are benign
// ring reuse, not data loss.
func TestDroppedUnexportedAccounting(t *testing.T) {
	tr := New(4)
	reg := metrics.NewRegistry()
	tr.AttachMetrics(reg)

	for i := 0; i < 6; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: KindSysTick})
	}
	// Events seq 0 and 1 were overwritten before any export.
	if got := tr.DroppedUnexported(); got != 2 {
		t.Fatalf("dropped unexported=%d, want 2", got)
	}

	// Export the survivors, then wrap the ring completely: these
	// overwrites recycle exported slots and must NOT count.
	tr.Events()
	for i := 0; i < 4; i++ {
		tr.Emit(Event{Cycle: uint64(100 + i), Kind: KindSysTick})
	}
	if got := tr.DroppedUnexported(); got != 2 {
		t.Fatalf("dropped unexported=%d after exported-slot reuse, want still 2", got)
	}

	// One more overwrite now hits an event emitted after the export —
	// never read by anyone, so it counts.
	tr.Emit(Event{Cycle: 200, Kind: KindSysTick})
	if got := tr.DroppedUnexported(); got != 3 {
		t.Fatalf("dropped unexported=%d, want 3", got)
	}
	if got := reg.Counter("trace_dropped_total").Value(); got != tr.DroppedUnexported() {
		t.Fatalf("trace_dropped_total=%d, counter says %d", got, tr.DroppedUnexported())
	}
}

// TestAttachMetricsTruesUpPriorDrops checks late attachment: drops that
// happened before a registry existed are credited on attach.
func TestAttachMetricsTruesUpPriorDrops(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindFault})
	}
	want := tr.DroppedUnexported()
	if want == 0 {
		t.Fatal("setup emitted no unexported drops")
	}
	reg := metrics.NewRegistry()
	tr.AttachMetrics(reg)
	if got := reg.Counter("trace_dropped_total").Value(); got != want {
		t.Fatalf("trace_dropped_total=%d after attach, want %d", got, want)
	}
}
