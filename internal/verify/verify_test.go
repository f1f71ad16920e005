package verify

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRegistryAddAndDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Add(&Spec{Component: "kernel", Name: "a", SpecLines: 3, Body: func(t *T) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate spec did not panic")
		}
	}()
	r.Add(&Spec{Component: "kernel", Name: "a", Body: func(t *T) {}})
}

func TestCheckedSpecRequiresBody(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("checked spec without body did not panic")
		}
	}()
	r.Add(&Spec{Component: "kernel", Name: "nobody"})
}

func TestRunCollectsViolations(t *testing.T) {
	r := NewRegistry()
	r.Add(&Spec{Component: "kernel", Name: "good", Body: func(t *T) {
		t.Assert(1+1 == 2, "arith", "broken")
	}})
	r.Add(&Spec{Component: "kernel", Name: "bad", Body: func(t *T) {
		for i := 0; i < 3; i++ {
			t.Failf("post", "counterexample %d", i)
		}
	}})
	rep := r.Run()
	if rep.OK() {
		t.Fatal("report OK despite violation")
	}
	failed := rep.Failed()
	if len(failed) != 1 || failed[0].Spec.Name != "bad" {
		t.Fatalf("failed=%v", failed)
	}
	if len(failed[0].Violations) != 3 {
		t.Fatalf("violations=%d", len(failed[0].Violations))
	}
	if !strings.Contains(failed[0].Violations[0].Error(), "counterexample 0") {
		t.Fatalf("violation text: %v", failed[0].Violations[0])
	}
}

func TestViolationCapStopsRecording(t *testing.T) {
	tt := &T{spec: "s", MaxViolations: 2}
	for i := 0; i < 10; i++ {
		tt.Failf("c", "v%d", i)
	}
	if len(tt.Violations()) != 2 {
		t.Fatalf("got %d violations, want cap 2", len(tt.Violations()))
	}
	if !tt.Stopped() {
		t.Fatal("not stopped at cap")
	}
}

func TestRunComponentFilters(t *testing.T) {
	r := NewRegistry()
	ran := map[string]bool{}
	for _, c := range []string{"kernel", "arm-mpu"} {
		c := c
		r.Add(&Spec{Component: c, Name: c + "/x", Body: func(t *T) { ran[c] = true }})
	}
	r.RunComponent("arm-mpu")
	if ran["kernel"] || !ran["arm-mpu"] {
		t.Fatalf("ran=%v", ran)
	}
}

func TestStats(t *testing.T) {
	rep := &Report{Results: []*Result{
		{Elapsed: 10 * time.Millisecond},
		{Elapsed: 20 * time.Millisecond},
		{Elapsed: 30 * time.Millisecond},
	}}
	s := rep.Stats()
	if s.Fns != 3 || s.Total != 60*time.Millisecond || s.Max != 30*time.Millisecond || s.Mean != 20*time.Millisecond {
		t.Fatalf("stats=%+v", s)
	}
	if s.StdDev < 8*time.Millisecond || s.StdDev > 9*time.Millisecond {
		t.Fatalf("stddev=%v, want ~8.16ms", s.StdDev)
	}
}

func TestSlowest(t *testing.T) {
	rep := &Report{Results: []*Result{
		{Spec: &Spec{Name: "a"}, Elapsed: 1},
		{Spec: &Spec{Name: "b"}, Elapsed: 5},
		{Spec: &Spec{Name: "c"}, Elapsed: 3},
	}}
	top := rep.Slowest(2)
	if top[0].Spec.Name != "b" || top[1].Spec.Name != "c" {
		t.Fatalf("slowest=%v,%v", top[0].Spec.Name, top[1].Spec.Name)
	}
}

func TestEffortTable(t *testing.T) {
	r := NewRegistry()
	r.Add(&Spec{Component: "kernel", Name: "k1", SpecLines: 5, Body: func(t *T) {}})
	r.Add(&Spec{Component: "kernel", Name: "k2", SpecLines: 7, Trust: TrustedLemma})
	r.Add(&Spec{Component: "arm-mpu", Name: "m1", SpecLines: 11, Body: func(t *T) {}})
	rows := r.Effort()
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	k := rows[0]
	if k.Component != "kernel" || k.Fns != 2 || k.TrustedFns != 1 || k.SpecLines != 12 || k.TrustedSpecs != 7 {
		t.Fatalf("kernel row=%+v", k)
	}
}

func TestRequireAndMustHold(t *testing.T) {
	if err := Require(true, "s", "c", "x"); err != nil {
		t.Fatal(err)
	}
	err := Require(false, "brk", "newBreak >= memoryStart", "got 0x%x", 4)
	if err == nil || !strings.Contains(err.Error(), "brk") {
		t.Fatalf("err=%v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustHold(false) did not panic")
		}
	}()
	MustHold(false, "site", "clause")
}

func TestDomains(t *testing.T) {
	r := Range(0, 10, 5)
	if len(r) != 3 || r[2] != 10 {
		t.Fatalf("Range=%v", r)
	}
	p := PowersOfTwo(32, 256)
	want := []uint32{32, 64, 128, 256}
	if len(p) != len(want) {
		t.Fatalf("PowersOfTwo=%v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PowersOfTwo=%v", p)
		}
	}
	// Range must not loop forever near the top of uint32.
	top := Range(0xFFFF_FFF0, 0xFFFF_FFFF, 8)
	if len(top) != 2 {
		t.Fatalf("top Range=%v", top)
	}
}

func TestAlignUpAndClosestPow2(t *testing.T) {
	if AlignUp(0, 8) != 0 || AlignUp(1, 8) != 8 || AlignUp(8, 8) != 8 || AlignUp(9, 8) != 16 {
		t.Fatal("AlignUp wrong")
	}
	if ClosestPowerOfTwo(0) != 1 || ClosestPowerOfTwo(1) != 1 || ClosestPowerOfTwo(3) != 4 || ClosestPowerOfTwo(4096) != 4096 || ClosestPowerOfTwo(4097) != 8192 {
		t.Fatal("ClosestPowerOfTwo wrong")
	}
}

// The trusted lemmas, proven here by exhaustive/property checking — the Go
// analogue of the paper's Lean proofs.
func TestLemmaPow2OctetExhaustive(t *testing.T) {
	for shift := 0; shift < 32; shift++ {
		if !LemmaPow2Octet(1 << shift) {
			t.Fatalf("lemma fails for 2^%d", shift)
		}
	}
}

func TestLemmaAlignUpBoundsProperty(t *testing.T) {
	f := func(v uint32, shift uint8) bool {
		return LemmaAlignUpBounds(v, 1<<(shift%31))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLemmaSubregionCoverExhaustive(t *testing.T) {
	for _, size := range PowersOfTwo(8, 1<<20) {
		for k := uint32(0); k <= 8; k++ {
			if !LemmaSubregionCover(size, k) {
				t.Fatalf("lemma fails for size=%d k=%d", size, k)
			}
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []uint32{1, 2, 4, 1 << 20, 1 << 31} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d)=false", n)
		}
	}
	for _, n := range []uint32{0, 3, 6, 1<<20 + 1} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d)=true", n)
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		i := i
		r.Add(&Spec{
			Component: "kernel",
			Name:      fmt.Sprintf("p%d", i),
			Body: func(t *T) {
				if i%7 == 3 {
					t.Failf("post", "unit %d", i)
				}
			},
		})
	}
	seq := r.Run()
	par := r.RunWith(RunOpts{Workers: 4})
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("lengths differ")
	}
	for i := range seq.Results {
		if seq.Results[i].Spec.Name != par.Results[i].Spec.Name {
			t.Fatalf("order differs at %d", i)
		}
		if seq.Results[i].OK() != par.Results[i].OK() {
			t.Fatalf("verdict differs for %s", seq.Results[i].Spec.Name)
		}
	}
	if len(par.Failed()) != len(seq.Failed()) {
		t.Fatalf("failure counts differ")
	}
}

func TestRunParallelSingleWorkerFloor(t *testing.T) {
	r := NewRegistry()
	r.Add(&Spec{Component: "kernel", Name: "only", Body: func(t *T) {}})
	if rep := r.RunWith(RunOpts{Workers: 0}); !rep.OK() || len(rep.Results) != 1 {
		t.Fatal("RunWith with 0 workers broken")
	}
}
