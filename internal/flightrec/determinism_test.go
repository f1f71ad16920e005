package flightrec_test

// End-to-end determinism: the ISSUE's acceptance bar. The same seed must
// produce a byte-identical recording twice, and replaying a recording to
// its final cycle must reproduce the live machine exactly — every CPU,
// MPU/PMP and kernel field plus the RAM image — on both ports, with
// fault injection off and on. Replay is pure reconstruction from the
// recorded deltas, so injected faults come back from the recording
// rather than being re-rolled; the byte-equality checks below would
// catch any re-roll.

import (
	"bytes"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
)

// encode renders a recording to its canonical bytes.
func encode(t *testing.T, rec *flightrec.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReplayMatchesLive replays the recording to its final cycle and
// compares every field and the memory image against the live kernel
// state captured by fields/memDigest.
func checkReplayMatchesLive(t *testing.T, rec *flightrec.Recording, live []flightrec.Field, memDigest func(bases []uint32) uint64) {
	t.Helper()
	s, err := rec.ReplayTo(rec.FinalCycle())
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycle != rec.FinalCycle() {
		t.Fatalf("replay landed at cycle %d, want final %d", s.Cycle, rec.FinalCycle())
	}
	for _, f := range live {
		got, ok := s.Field(f.Name)
		if !ok {
			t.Errorf("replayed state is missing field %s", f.Name)
			continue
		}
		if got != f.Val {
			t.Errorf("field %s: replay 0x%x, live 0x%x", f.Name, got, f.Val)
		}
	}
	if len(s.Fields()) != len(live) {
		t.Errorf("replayed %d fields, live has %d", len(s.Fields()), len(live))
	}
	if got, want := s.MemDigest(), memDigest(s.PageBases()); got != want {
		t.Errorf("memory digest: replay 0x%x, live 0x%x", got, want)
	}
}

func TestRecordingDeterminismARM(t *testing.T) {
	for _, name := range []string{"c_hello", "mpu_walk_region", "grant_test", "timer_test"} {
		tc, ok := findCase(name)
		if !ok {
			t.Fatalf("no case %q", name)
		}
		t.Run(name, func(t *testing.T) {
			k1, rec1, err := difftest.RunRecorded(tc, kernel.FlavourTickTock, difftest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, rec2, err := difftest.RunRecorded(tc, kernel.FlavourTickTock, difftest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			b1, b2 := encode(t, rec1), encode(t, rec2)
			if !bytes.Equal(b1, b2) {
				t.Fatal("two identical runs produced different recordings")
			}
			if len(rec1.Snapshots) == 0 {
				t.Fatal("recording is empty")
			}
			checkReplayMatchesLive(t, rec1, k1.FlightFields(), func(bases []uint32) uint64 {
				return flightrec.DigestMemory(k1.Board.Machine.Mem, bases)
			})
		})
	}
}

func findCase(name string) (apps.TestCase, bool) {
	for _, c := range apps.All() {
		if c.Name == name {
			return c, true
		}
	}
	return apps.TestCase{}, false
}

func TestRecordingDeterminismRV(t *testing.T) {
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			run := func() (*rvkernel.Kernel, *flightrec.Recording) {
				k, err := rvkernel.New(chip)
				if err != nil {
					t.Fatal(err)
				}
				rec := flightrec.NewRecorder("rv32-" + chip.Name)
				k.Attach(kcore.Observe{FlightRec: rec})
				for _, app := range rvkernel.ReleaseSubset()[:3] {
					if _, err := k.LoadProcess(app); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := k.Run(2000); err != nil {
					t.Fatal(err)
				}
				return k, rec.Finish()
			}
			k1, rec1 := run()
			_, rec2 := run()
			if !bytes.Equal(encode(t, rec1), encode(t, rec2)) {
				t.Fatal("two identical RISC-V runs produced different recordings")
			}
			if len(rec1.Snapshots) == 0 {
				t.Fatal("recording is empty")
			}
			checkReplayMatchesLive(t, rec1, k1.FlightFields(), func(bases []uint32) uint64 {
				return flightrec.DigestMemory(k1.Machine.Mem, bases)
			})
		})
	}
}

// TestFaultInjectionReplayDeterminism records the same injected scenario
// twice on both ports: byte-identical recordings prove the injected
// faults replay from the recorded state (a re-rolled injection would
// perturb the bytes), and the injected timeline must differ from the
// baseline's — the fault is in the recording.
func TestFaultInjectionReplayDeterminism(t *testing.T) {
	sc := faultinject.Scenario{
		App:     "blink",
		Kind:    faultinject.KindMPUFlip,
		Quantum: 1,
		Entry:   0,
		AttrReg: true,
		BitAttr: 0,
	}
	cfg := faultinject.Config{}
	arm1, rv1, err := faultinject.RecordRuns(sc, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	arm2, rv2, err := faultinject.RecordRuns(sc, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, arm1), encode(t, arm2)) {
		t.Fatal("ARM injected recording not deterministic")
	}
	if !bytes.Equal(encode(t, rv1), encode(t, rv2)) {
		t.Fatal("RISC-V injected recording not deterministic")
	}

	// The decoded recording replays identically to the in-memory one.
	dec, err := flightrec.Decode(bytes.NewReader(encode(t, arm1)))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := arm1.ReplayTo(arm1.FinalCycle())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dec.ReplayTo(dec.FinalCycle())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := flightrec.CompareStates(s1, s2, nil); len(diffs) != 0 {
		t.Fatalf("decoded replay diverges from live replay: %+v", diffs[0])
	}

	// An uninjected baseline of the same app diverges from the injected
	// timeline — the upset is captured in the recording itself.
	tc, ok := findCase("blink")
	if !ok {
		t.Fatal("no blink case")
	}
	_, base, err := difftest.RunRecorded(tc, kernel.FlavourTickTock, difftest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	div, err := flightrec.Bisect(base, arm1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("injected recording is indistinguishable from the baseline")
	}
}
