package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/trace"
)

// TestBaselineTableOnePerKey pins the saving: a campaign runs one clean
// baseline per distinct key and port, counted by the tables themselves.
// At one worker no two lookups overlap, so every key runs exactly once;
// with stealing workers two may miss the same key together, so only the
// set of stored keys is exact.
func TestBaselineTableOnePerKey(t *testing.T) {
	cfg := Config{Seed: 0, N: 500}.withDefaults()
	armKeys, rvKeys := map[Scenario]bool{}, map[Scenario]bool{}
	for _, sc := range GenScenarios(cfg) {
		armKeys[armBaseKey(sc)] = true
		rvKeys[rvBaseKey(sc)] = true
	}
	if len(armKeys) != 32 || len(rvKeys) != 48 {
		t.Fatalf("seed 0 N 500 has %d ARM and %d RISC-V baseline keys, want 32 and 48", len(armKeys), len(rvKeys))
	}
	for _, workers := range []int{1, 4} {
		r := campaignRunner(cfg)
		if _, err := campaign.Supervise(campaign.Config{Workers: workers}, r.units(nil, nil)); err != nil {
			t.Fatal(err)
		}
		for _, tbl := range []struct {
			port string
			t    *baselineTable
			keys map[Scenario]bool
		}{{"arm", r.arm, armKeys}, {"rv", r.rv, rvKeys}} {
			if len(tbl.t.done) != len(tbl.keys) {
				t.Errorf("workers=%d %s: %d baselines stored, want %d", workers, tbl.port, len(tbl.t.done), len(tbl.keys))
			}
			for key := range tbl.t.done {
				if !tbl.keys[key] {
					t.Errorf("workers=%d %s: stored baseline for %+v, which no scenario projects to", workers, tbl.port, key)
				}
			}
			if workers == 1 && tbl.t.runs != len(tbl.keys) {
				t.Errorf("workers=1 %s: %d baseline runs for %d keys", tbl.port, tbl.t.runs, len(tbl.keys))
			}
			if tbl.t.runs < len(tbl.keys) {
				t.Errorf("workers=%d %s: %d baseline runs for %d stored keys", workers, tbl.port, tbl.t.runs, len(tbl.keys))
			}
		}
	}
}

// TestBaselineSharingMatchesRunScenario pins that sharing baselines
// changes no result: every Result of Run equals, as the JSON a journal
// keeps, RunScenario of the same scenario, at one and four workers on
// both cores. RunScenario shares nothing and runs each baseline on the
// whole scenario, so this also checks that the keys keep every field a
// baseline reads.
func TestBaselineSharingMatchesRunScenario(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 30
	}
	for _, fast := range []bool{false, true} {
		cfg := Config{Seed: 0, N: n, FastCore: fast}
		var want [][]byte
		for _, sc := range GenScenarios(cfg) {
			b, err := json.Marshal(RunScenario(sc, cfg))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			for i, res := range Run(cfg).Results {
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("fast=%v workers=%d %s: campaign result differs from RunScenario\n got: %s\nwant: %s",
						fast, workers, res.Scenario.Label(), got, want[i])
				}
			}
		}
	}
}

// TestBaselinePredictsFiring pins the prediction that answers a port
// from its baseline: for every port run of seeds 0 and 1<<16 at N 500,
// on both cores, the baseline's counts predict whether the injection
// fires exactly as the injected run reports it, and every run predicted
// not to fire has the baseline's signature and isolation sweep. On top
// of the generated scenarios it runs boundary ones, built from each
// baseline key's own counts, with every kind's threshold at count−1,
// count and count+1: the generated Quantum and Nth alone do not land on
// every threshold.
func TestBaselinePredictsFiring(t *testing.T) {
	for _, fast := range []bool{false, true} {
		for _, seed := range []int64{0, 1 << 16} {
			cfg := Config{Seed: seed, N: 500, FastCore: fast}.withDefaults()
			for _, c := range []struct {
				name string
				p    port
			}{{"arm", armPort}, {"rv32", rvPort}} {
				p := c.p
				bases := map[Scenario]baseline{}
				var scenarios []Scenario
				for _, sc := range GenScenarios(cfg) {
					k := p.baseKey(sc)
					if _, ok := bases[k]; !ok {
						r, err := p.run(k, cfg, false, kcore.Observe{})
						if err != nil {
							t.Fatal(err)
						}
						bases[k] = baseline{sig: r.sig, seen: r.seen, violations: r.sweep()}
						scenarios = append(scenarios, boundaryScenarios(sc, r.seen)...)
					}
					scenarios = append(scenarios, sc)
				}
				var wrong []string
				skipped := 0
				for _, sc := range scenarios {
					base := bases[p.baseKey(sc)]
					inj, err := p.run(sc, cfg, true, kcore.Observe{})
					if err != nil {
						t.Fatal(err)
					}
					violations := inj.sweep()
					name := fmt.Sprintf("%s %s Quantum=%d Nth=%d", sc.Label(), p.name(sc), sc.Quantum, sc.Nth)
					switch fires := base.seen.fires(sc); {
					case fires != inj.applied:
						wrong = append(wrong, fmt.Sprintf("%s: predicted fires=%v, applied=%v (%+v)", name, fires, inj.applied, base.seen))
					case !fires && (inj.sig != base.sig || fmt.Sprint(violations) != fmt.Sprint(base.violations)):
						wrong = append(wrong, name+": skipped run differs from its baseline")
					case !fires:
						skipped++
					}
				}
				if len(wrong) > 0 {
					t.Errorf("fast=%v seed=%d %s: %d of %d runs mispredicted, first: %s",
						fast, seed, c.name, len(wrong), len(scenarios), wrong[0])
				}
				if skipped == 0 || skipped == len(scenarios) {
					t.Errorf("fast=%v seed=%d %s: %d of %d runs predicted skipped; both sides must be reached",
						fast, seed, c.name, skipped, len(scenarios))
				}
			}
		}
	}
}

// boundaryScenarios rebuilds sc as every kind with the kind's threshold
// at seen's count −1, +0 and +1, from 1 up as GenScenarios draws them.
// A bus fault fires on the first checked load whatever its Nth, so its
// boundary is the keys with and without loads.
func boundaryScenarios(sc Scenario, seen reach) []Scenario {
	var out []Scenario
	for k := Kind(0); int(k) < numKinds; k++ {
		n := seen.quanta
		switch k {
		case KindMPUFlip:
			n = seen.quantumStarts
		case KindSyscallArg:
			n = seen.syscallArgs
		case KindSyscallRet:
			n = seen.syscallRets
		case KindBusFault:
			n = seen.loads
		}
		for v := max(n-1, 1); v <= n+1; v++ {
			b := sc
			b.Kind, b.Quantum, b.Nth = k, v, v
			out = append(out, b)
		}
	}
	return out
}

// TestBaselinePanicStoresNothing: a baseline run that panics leaves no
// entry behind, so the next lookup of its key runs it again instead of
// reading a zero signature.
func TestBaselinePanicStoresNothing(t *testing.T) {
	var tbl baselineTable
	sc := GenScenarios(Config{N: 1})[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking baseline did not panic through get")
			}
		}()
		tbl.get(sc, armBaseKey, func(Scenario, bool) baseline { panic("baseline crashed") })
	}()
	if len(tbl.done) != 0 || tbl.runs != 0 {
		t.Fatalf("panicked baseline left %d entries and %d runs", len(tbl.done), tbl.runs)
	}
	want := runSignature{Output: "clean"}
	got := tbl.get(sc, armBaseKey, func(Scenario, bool) baseline { return baseline{sig: want} })
	if got.err != nil || got.sig != want || tbl.runs != 1 || len(tbl.done) != 1 {
		t.Fatalf("lookup after the panic: %+v, %d runs, %d entries", got, tbl.runs, len(tbl.done))
	}
}

// TestBaselineLookupNeverWaits: a lookup never waits on another
// worker's run of the same key. While one run of a key is wedged, a
// second lookup runs and stores its own; when the wedged run completes,
// its store loses and it returns the stored entry.
func TestBaselineLookupNeverWaits(t *testing.T) {
	var tbl baselineTable
	sc := GenScenarios(Config{N: 1})[0]
	entered, release := make(chan struct{}), make(chan struct{})
	late := make(chan runSignature)
	go func() {
		b := tbl.get(sc, rvBaseKey, func(Scenario, bool) baseline {
			close(entered)
			<-release
			return baseline{sig: runSignature{Output: "second"}}
		})
		late <- b.sig
	}()
	<-entered
	first := make(chan runSignature)
	go func() {
		b := tbl.get(sc, rvBaseKey, func(Scenario, bool) baseline { return baseline{sig: runSignature{Output: "first"}} })
		first <- b.sig
	}()
	select {
	case sig := <-first:
		if sig.Output != "first" {
			t.Fatalf("second lookup returned %q", sig.Output)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lookup waited on another worker's in-flight baseline")
	}
	close(release)
	if sig := <-late; sig.Output != "first" {
		t.Fatalf("the run that stored second returned its own %q, not the stored entry", sig.Output)
	}
	if tbl.runs != 2 || len(tbl.done) != 1 || tbl.done[rvBaseKey(sc)].sig.Output != "first" {
		t.Fatalf("table after the race: %d runs, %+v", tbl.runs, tbl.done)
	}
}

// instrumented wraps p to tally its runs by what they carry and, with
// violate, to make every isolation sweep report a violation: real
// campaigns have none, so this is how a test reaches the recording
// path.
func instrumented(p port, violate bool, runs map[string]int) port {
	run := p.run
	p.run = func(sc Scenario, cfg Config, inject bool, obs kcore.Observe) (portRun, error) {
		r, err := run(sc, cfg, inject, obs)
		switch {
		case !inject:
			runs["baseline"]++
		case obs.FlightRec != nil && obs.Trace != nil:
			runs["recorded+traced"]++
		case obs.FlightRec != nil:
			runs["recorded"]++
		default:
			runs["injected"]++
		}
		if sweep := r.sweep; violate && sweep != nil {
			r.sweep = func() []string { return append(sweep(), "forced") }
		}
		return r, err
	}
	return p
}

func encodeRecording(t *testing.T, rec *flightrec.Recording) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLazyRecordingMatchesRecordRuns pins Config.Record's contract:
// injected runs carry no recorder; a port whose isolation sweep finds
// violations is re-run once under a fresh recorder and no tracer, and
// the recording equals, codec byte for codec byte, the injected
// recording RecordRuns returns for that port, although the campaign's
// tracer was attached to both ports' injected runs. A port whose
// injection cannot fire makes no injected run: its sweep is the
// baseline's, and a violation found there is recorded the same way. A
// port without violations records nothing.
func TestLazyRecordingMatchesRecordRuns(t *testing.T) {
	cfg := Config{Seed: 0, Record: true}.withDefaults()
	skipped := 0
	for _, sc := range GenScenarios(cfg)[:40] {
		wantARM, wantRV, err := RecordRuns(sc, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(4096) // one unit tracer, shared by both ports
		for _, c := range []struct {
			p    port
			want *flightrec.Recording
		}{{armPort, wantARM}, {rvPort, wantRV}} {
			for _, violate := range []bool{true, false} {
				runs := map[string]int{}
				pr := instrumented(c.p, violate, runs).result(sc, cfg, nil, tr)
				name := fmt.Sprintf("%s %s violate=%v", sc.Label(), pr.Port, violate)
				if pr.Err != "" {
					t.Fatalf("%s: %s", name, pr.Err)
				}
				want := map[string]int{"baseline": 1}
				if pr.Applied {
					want["injected"] = 1
				} else {
					skipped++
				}
				if violate {
					want["recorded"] = 1
				}
				if fmt.Sprint(runs) != fmt.Sprint(want) {
					t.Fatalf("%s: runs %v, want %v", name, runs, want)
				}
				if !violate {
					if pr.Replay != nil {
						t.Fatalf("%s: clean port carries a recording", name)
					}
					continue
				}
				if pr.Replay == nil {
					t.Fatalf("%s: violating port has no recording", name)
				}
				if !bytes.Equal(encodeRecording(t, pr.Replay), encodeRecording(t, c.want)) {
					t.Fatalf("%s: violation recording differs from RecordRuns' injected recording", name)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no port was answered from its baseline; the skipped path went untested")
	}
}
