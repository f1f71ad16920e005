package difftest

import (
	"encoding/json"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/trace"
)

// TestTracedCampaignCountsMatchKernelCounters is the acceptance check
// for the tracer's accounting: running every release test under trace,
// the Chrome trace-event JSON must contain exactly as many
// context-switch events as the kernel's own Switches counter and exactly
// as many MPU/brk/grant events as the kernel's instrumented Stats
// counters — on both flavours.
func TestTracedCampaignCountsMatchKernelCounters(t *testing.T) {
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		for _, tc := range apps.All() {
			tr := trace.New(1 << 17)
			k, err := RunFlavour(tc, fl, Config{}, kcore.Observe{Trace: tr})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.Name, fl, err)
			}
			if d := tr.Dropped(); d != 0 {
				t.Fatalf("%s on %s: ring dropped %d events; raise the test capacity", tc.Name, fl, d)
			}

			var b strings.Builder
			if err := tr.ExportChromeJSONWindow(&b, 0, ^uint64(0)); err != nil {
				t.Fatal(err)
			}
			var out struct {
				TraceEvents []struct {
					Cat   string `json:"cat"`
					Phase string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
				t.Fatalf("%s on %s: invalid chrome JSON: %v", tc.Name, fl, err)
			}
			byCat := map[string]uint64{}
			for _, e := range out.TraceEvents {
				byCat[e.Cat]++
			}

			if got, want := byCat["context-switch"], k.Switches; got != want {
				t.Errorf("%s on %s: %d context-switch events, kernel counted %d switches", tc.Name, fl, got, want)
			}
			for cat, method := range map[string]string{
				"mpu-config":  "setup_mpu",
				"brk":         "brk",
				"grant-alloc": "allocate_grant",
			} {
				if got, want := byCat[cat], k.Stats.Get(method).Count; got != want {
					t.Errorf("%s on %s: %d %s events, Stats counted %d %s calls", tc.Name, fl, got, cat, want, method)
				}
			}
			if byCat["syscall-enter"] != byCat["syscall-exit"] {
				t.Errorf("%s on %s: unbalanced syscall spans: %d enters, %d exits",
					tc.Name, fl, byCat["syscall-enter"], byCat["syscall-exit"])
			}

			// The counter mirror agrees with the buffered events (no
			// drops happened, so they must be identical).
			for kind, cat := range map[trace.Kind]string{
				trace.KindContextSwitch: "context-switch",
				trace.KindSyscallEnter:  "syscall-enter",
				trace.KindGrantAlloc:    "grant-alloc",
			} {
				if tr.Count(kind) != byCat[cat] {
					t.Errorf("%s on %s: counter mirror %s=%d, buffer has %d", tc.Name, fl, cat, tr.Count(kind), byCat[cat])
				}
			}
		}
	}
}

// TestTracedRunCyclesMatchUntraced is the zero-overhead guarantee at the
// simulated-cycle level: the same case runs to the same meter reading
// and the same Stats with and without the tracer attached.
func TestTracedRunCyclesMatchUntraced(t *testing.T) {
	for _, tc := range apps.All() {
		plainK, err := RunFlavour(tc, kernel.FlavourTickTock, Config{}, kcore.Observe{})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(1 << 17)
		tracedK, err := RunFlavour(tc, kernel.FlavourTickTock, Config{}, kcore.Observe{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Emitted() == 0 {
			t.Fatalf("%s: traced run emitted no events", tc.Name)
		}
		if got, want := tracedK.Meter().Cycles(), plainK.Meter().Cycles(); got != want {
			t.Errorf("%s: traced run used %d cycles, untraced %d — tracing must be free", tc.Name, got, want)
		}
		if got, want := tracedK.Switches, plainK.Switches; got != want {
			t.Errorf("%s: traced switches=%d, untraced %d", tc.Name, got, want)
		}
	}
}
