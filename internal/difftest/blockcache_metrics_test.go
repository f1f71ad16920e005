package difftest

import (
	"fmt"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/metrics"
)

// TestBlockcacheCountersThreeWayAccounting closes the PR-9 fast-core
// metrics blind spot: for a fast-core run, the machine's own
// blockcache.Stats, the registry's blockcache_*_total series, and the
// Prometheus text exposition (parsed back) must all describe the same
// cache behaviour.
func TestBlockcacheCountersThreeWayAccounting(t *testing.T) {
	// temperature loops enough to exercise both the hit and miss paths.
	var tc apps.TestCase
	for _, c := range apps.All() {
		if c.Name == "temperature" {
			tc = c
		}
	}
	if tc.Name == "" {
		t.Fatal("temperature case missing from the suite")
	}
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		reg := metrics.NewRegistry()
		k, err := RunFlavour(tc, fl, Config{FastCore: true}, kcore.Observe{Metrics: reg})
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.Name, fl, err)
		}
		st := k.Board.Machine.FastStats()
		if st == nil {
			t.Fatalf("%s on %s: fast core not enabled", tc.Name, fl)
		}
		if st.Hits == 0 {
			t.Fatalf("%s on %s: vacuous run, no cache hits", tc.Name, fl)
		}

		flavour := metrics.L("flavour", fl.String())
		type series struct {
			name, reason string
		}
		want := map[series]uint64{
			{"blockcache_hits_total", ""}:                        st.Hits,
			{"blockcache_misses_total", ""}:                      st.Misses,
			{"blockcache_invalidations_total", ""}:               st.Flushes + st.CoverRechecks,
			{"blockcache_oracle_fallbacks_total", "no-block"}:    st.SlowNoBlock,
			{"blockcache_oracle_fallbacks_total", "exec-denied"}: st.SlowDenied,
			{"blockcache_hint_hits_total", ""}:                   st.HintHits,
			{"blockcache_hint_misses_total", ""}:                 st.HintMisses,
		}
		if st.SlowSteps != st.SlowNoBlock+st.SlowDenied {
			t.Errorf("%s on %s: SlowSteps %d is not the sum of its reasons %d + %d", tc.Name, fl, st.SlowSteps, st.SlowNoBlock, st.SlowDenied)
		}

		// Registry view.
		for s, v := range want {
			labels := []metrics.Label{flavour}
			if s.reason != "" {
				labels = append(labels, metrics.L("reason", s.reason))
			}
			if got := reg.Counter(s.name, labels...).Value(); got != v {
				t.Errorf("%s on %s: registry %s%v = %d, want %d", tc.Name, fl, s.name, labels, got, v)
			}
		}

		// Scraper view: through the exposition text and back.
		var b strings.Builder
		if err := reg.ExportPrometheus(&b); err != nil {
			t.Fatal(err)
		}
		parsed, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s on %s: export does not re-parse: %v", tc.Name, fl, err)
		}
		for s, v := range want {
			id := fmt.Sprintf(`%s{flavour=%q}`, s.name, fl.String())
			if s.reason != "" {
				id = fmt.Sprintf(`%s{flavour=%q,reason=%q}`, s.name, fl.String(), s.reason)
			}
			got, ok := parsed[id]
			if !ok || got != float64(v) {
				t.Errorf("%s on %s: prometheus %s = %v (present %v), want %d", tc.Name, fl, id, got, ok, v)
			}
		}
	}
}

// Without the fast core, no blockcache series may appear — the blind
// spot fix must not invent series for runs that never used the cache.
func TestBlockcacheCountersAbsentWithoutFastCore(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := RunFlavour(apps.All()[0], kernel.FlavourTickTock, Config{}, kcore.Observe{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	for _, cp := range reg.Snapshot().Counters {
		if strings.HasPrefix(cp.Name, "blockcache_") {
			t.Fatalf("unexpected %s in oracle-core run", cp.ID)
		}
	}
}
