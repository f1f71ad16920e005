package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Fleet timeline: the wall-clock span layer recorded by the live
// telemetry plane (internal/telemetry) over a supervised campaign.
// Where the kernel tracer's timestamps are simulated cycle readings,
// fleet spans are real wall-clock microseconds — campaign → worker →
// unit-attempt — and a scenario's kernel events nest under its attempt
// span by scaling the simulated cycle domain linearly into the
// attempt's wall window. The merged export is one Chrome trace where
// tid 0 is the campaign track and tid w+1 is worker w's track.

// FleetSpan is one completed wall-clock span.
type FleetSpan struct {
	// Name is the display name ("campaign", "unit 17", "attempt 0", ...).
	Name string
	// Cat categorises the span ("campaign", "unit", "attempt").
	Cat string
	// TID is the track: 0 for the campaign, w+1 for worker w.
	TID int
	// StartUS and DurUS are wall-clock microseconds since campaign start.
	StartUS, DurUS uint64
	// Args are extra key/values shown in the trace viewer.
	Args map[string]string
	// Kernel holds simulated-cycle kernel events to nest inside this
	// span (usually a unit-attempt's tracer ring).
	Kernel []Event
}

// FleetInstant is one wall-clock point annotation (retry, backoff,
// steal, quarantine, checkpoint...).
type FleetInstant struct {
	Name string
	Cat  string
	TID  int
	// TS is wall-clock microseconds since campaign start.
	TS   uint64
	Args map[string]string
}

// FleetTimeline is a complete fleet trace ready for export.
type FleetTimeline struct {
	// Tracks names each tid ("campaign", "worker 0", ...).
	Tracks map[int]string
	// Spans and Instants in any order; export sorts deterministically.
	Spans    []FleetSpan
	Instants []FleetInstant
	// Dropped counts spans lost to the recording ring.
	Dropped uint64
}

// nestKernel scales a span's kernel events into its wall window and
// renders them as chrome events on the span's track. Cycle c of
// [0, maxCycle] maps to StartUS + DurUS*c/(maxCycle+1), preserving
// relative spacing while keeping every nested event strictly inside the
// span.
func nestKernel(sp FleetSpan) []chromeEvent {
	if len(sp.Kernel) == 0 {
		return nil
	}
	var maxCycle uint64
	for _, e := range sp.Kernel {
		if e.Cycle > maxCycle {
			maxCycle = e.Cycle
		}
	}
	scale := func(c uint64) uint64 {
		if sp.DurUS == 0 {
			return sp.StartUS
		}
		// float64 keeps the intermediate product from overflowing for
		// long campaigns; spacing is approximate past 2^53 anyway.
		return sp.StartUS + uint64(float64(sp.DurUS)*float64(c)/float64(maxCycle+1))
	}
	out := make([]chromeEvent, 0, len(sp.Kernel))
	for _, e := range sp.Kernel {
		ce := chromeKernelEvent(e, "kernel:"+e.Kind.String(), scale(e.Cycle), sp.TID)
		ce.Args["cycle"] = fmt.Sprintf("%d", e.Cycle)
		out = append(out, ce)
	}
	return out
}

// ExportFleetChromeJSON writes the fleet timeline as Chrome trace-event
// JSON: thread_name metadata for each track, "X" complete events for
// spans, instant events for annotations, and each span's kernel events
// nested inside its wall window. Output is deterministic for a given
// timeline.
func ExportFleetChromeJSON(w io.Writer, tl FleetTimeline) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, Dropped: tl.Dropped}

	tids := make([]int, 0, len(tl.Tracks))
	for tid := range tl.Tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   tid,
			Args:  map[string]string{"name": tl.Tracks[tid]},
		})
	}

	spans := append([]FleetSpan(nil), tl.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		if spans[i].TID != spans[j].TID {
			return spans[i].TID < spans[j].TID
		}
		return spans[i].Name < spans[j].Name
	})
	for _, sp := range spans {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  sp.Name,
			Cat:   sp.Cat,
			Phase: "X",
			TS:    sp.StartUS,
			Dur:   sp.DurUS,
			PID:   0,
			TID:   sp.TID,
			Args:  sp.Args,
		})
		out.TraceEvents = append(out.TraceEvents, nestKernel(sp)...)
		out.Emitted += uint64(1 + len(sp.Kernel))
	}

	instants := append([]FleetInstant(nil), tl.Instants...)
	sort.SliceStable(instants, func(i, j int) bool {
		if instants[i].TS != instants[j].TS {
			return instants[i].TS < instants[j].TS
		}
		if instants[i].TID != instants[j].TID {
			return instants[i].TID < instants[j].TID
		}
		return instants[i].Name < instants[j].Name
	})
	for _, in := range instants {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  in.Name,
			Cat:   in.Cat,
			Phase: "i",
			Scope: "t",
			TS:    in.TS,
			PID:   0,
			TID:   in.TID,
			Args:  in.Args,
		})
		out.Emitted++
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
