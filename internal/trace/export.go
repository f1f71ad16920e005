package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto). Durations and instants both use the
// "displayTimeUnit: ns" convention with the simulated cycle count as the
// timestamp — one cycle renders as one microsecond, which keeps the
// relative spacing exact.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	// Metadata mirrors the tracer's accounting so consumers can detect
	// a wrapped ring.
	Emitted uint64 `json:"emitted"`
	Dropped uint64 `json:"dropped"`
}

// chromeName renders an event's display name.
func chromeName(e Event) string {
	switch e.Kind {
	case KindSyscallEnter, KindSyscallExit:
		if e.Label != "" {
			return "syscall:" + e.Label
		}
		return fmt.Sprintf("syscall:%d", e.A)
	case KindExceptionEntry, KindExceptionReturn:
		return fmt.Sprintf("exception:%d", e.A)
	default:
		if e.Label != "" {
			return e.Kind.String() + ":" + e.Label
		}
		return e.Kind.String()
	}
}

// chromeKernelEvent renders one kernel event on track tid at ts.
// Syscalls become B/E duration pairs; everything else becomes an
// instant event.
func chromeKernelEvent(e Event, cat string, ts uint64, tid int) chromeEvent {
	ce := chromeEvent{
		Name: chromeName(e),
		Cat:  cat,
		TS:   ts,
		TID:  tid,
		Args: map[string]string{
			"proc": e.Name,
			"a":    fmt.Sprintf("0x%x", e.A),
			"b":    fmt.Sprintf("0x%x", e.B),
		},
	}
	if e.Label != "" {
		ce.Args["label"] = e.Label
	}
	switch e.Kind {
	case KindSyscallEnter:
		ce.Phase = "B"
	case KindSyscallExit:
		ce.Phase = "E"
	default:
		ce.Phase = "i"
		ce.Scope = "t"
	}
	return ce
}

// ExportChromeJSONWindow writes the buffered events whose cycle
// timestamp falls in [from, to] as Chrome trace-event JSON, one track
// per process (tid 0 is the kernel). Nil-safe: a nil tracer writes an
// empty trace.
func (t *Tracer) ExportChromeJSONWindow(w io.Writer, from, to uint64) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}}
	if t != nil {
		out.Emitted = t.Emitted()
		out.Dropped = t.Dropped()
	}
	for _, e := range t.Events() {
		if e.Cycle < from || e.Cycle > to {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeKernelEvent(e, e.Kind.String(), e.Cycle, e.Proc+1))
	}
	return json.NewEncoder(w).Encode(out)
}

// ExportText writes the buffered events as a human-readable timeline,
// one event per line:
//
//	cycle=000001234 seq=0017 proc=1/blink    syscall-enter   command a=0x1 b=0x0
//
// Nil-safe: a nil tracer writes only the header.
func (t *Tracer) ExportText(w io.Writer) error {
	return t.ExportTextWindow(w, 0, ^uint64(0))
}

// ExportTextWindow is ExportText restricted to events whose cycle
// timestamp falls in [from, to].
func (t *Tracer) ExportTextWindow(w io.Writer, from, to uint64) error {
	if _, err := fmt.Fprintf(w, "%-16s %-6s %-16s %-16s %s\n",
		"cycle", "seq", "proc", "kind", "detail"); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	for _, e := range t.Events() {
		if e.Cycle < from || e.Cycle > to {
			continue
		}
		proc := "kernel"
		if e.Proc != KernelProc {
			proc = fmt.Sprintf("%d/%s", e.Proc, e.Name)
		}
		detail := e.Label
		switch e.Kind {
		case KindSyscallExit:
			detail = fmt.Sprintf("%s ret=0x%x", e.Label, e.B)
		case KindGrantAlloc:
			detail = fmt.Sprintf("size=%d addr=0x%x", e.A, e.B)
		case KindBrk:
			detail = fmt.Sprintf("%s arg=0x%x new=0x%x", e.Label, e.A, e.B)
		case KindExceptionEntry, KindExceptionReturn:
			detail = fmt.Sprintf("exc=%d", e.A)
		case KindContextSwitch:
			detail = fmt.Sprintf("total=%d", e.A)
		case KindRestart:
			detail = fmt.Sprintf("attempt=%d", e.A)
		case KindWatchdog:
			detail = fmt.Sprintf("preemptions=%d", e.A)
		case KindBackoff:
			detail = fmt.Sprintf("attempt=%d delay=%d", e.A, e.B)
		}
		if _, err := fmt.Fprintf(w, "%-16d %-6d %-16s %-16s %s\n",
			e.Cycle, e.Seq, proc, e.Kind, detail); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events overwritten)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// TextDump renders ExportText into a string (convenience for the
// difftest divergence report).
func (t *Tracer) TextDump() string {
	var b strings.Builder
	_ = t.ExportText(&b)
	return b.String()
}

// SideBySide renders two text dumps in two columns for divergence
// reports, truncating long lines to keep the table readable.
func SideBySide(leftTitle, left, rightTitle, right string, width int) string {
	if width <= 0 {
		width = 60
	}
	ll := strings.Split(strings.TrimRight(left, "\n"), "\n")
	rl := strings.Split(strings.TrimRight(right, "\n"), "\n")
	n := len(ll)
	if len(rl) > n {
		n = len(rl)
	}
	clip := func(s string) string {
		if len(s) > width {
			return s[:width-1] + "…"
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s | %s\n", width, clip(leftTitle), clip(rightTitle))
	fmt.Fprintf(&b, "%s-+-%s\n", strings.Repeat("-", width), strings.Repeat("-", width))
	for i := 0; i < n; i++ {
		var l, r string
		if i < len(ll) {
			l = ll[i]
		}
		if i < len(rl) {
			r = rl[i]
		}
		marker := " "
		if l != r {
			marker = ">"
		}
		fmt.Fprintf(&b, "%-*s %s %s\n", width, clip(l), marker, clip(r))
	}
	return b.String()
}
