package ticktock

// Benchmarks and guards for the block-cache fast core: predecoded basic
// blocks with per-block execute covers and last-hit interval hints for
// data accesses. BenchmarkBlockCache reports fast-vs-oracle stepping
// cost per port; TestBlockCacheSpeedupGuard pins the acceptance ratio
// so a regression (losing the block batch, reverting the hints, or
// breaking the quickened dispatch) fails the suite rather than just
// slowing it down; TestProgramLookupScalingGuard pins the sorted
// program lookup that replaced the linear scan over loaded programs.

import (
	"testing"
	"time"

	"ticktock/internal/armv7m"
	"ticktock/internal/corebench"
)

// BenchmarkBlockCache times the preemptive workload per port and core.
// Compare <port>/fast against <port>/oracle; both retire the identical
// instruction stream and simulated cycles.
func BenchmarkBlockCache(b *testing.B) {
	type variant struct {
		name      string
		newRunner func(fast bool) corebench.Runner
		fast      bool
	}
	variants := []variant{
		{"armv7m/oracle", corebench.NewARMRunner, false},
		{"armv7m/fast", corebench.NewARMRunner, true},
		{"rv32/oracle", corebench.NewRVRunner, false},
		{"rv32/fast", corebench.NewRVRunner, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			r := v.newRunner(v.fast)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Measure(10)
			}
		})
	}
}

// TestBlockCacheSpeedupGuard enforces the acceptance criterion: on the
// preemptive kernel-like workload, the block-cache core must step at
// least 5x faster per simulated cycle than the byte-scan oracle core,
// on both ports. Trials are interleaved and minimum-taken inside
// corebench.Speedup so CI-box contention cannot manufacture a failure.
// This guard is the floor; the stepping-rate trajectory across commits
// is the repo benchmark's step.sim_mcycles_per_s (perfbench/).
func TestBlockCacheSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		// Race instrumentation taxes the two cores differently (the fast
		// core's win is fewer calls and checks, not fewer memory
		// accesses), so the 5x ratio is only meaningful uninstrumented.
		t.Skip("timing guard skipped under the race detector")
	}
	ports := []struct {
		name      string
		newRunner func(fast bool) corebench.Runner
	}{
		{"armv7m", corebench.NewARMRunner},
		{"rv32", corebench.NewRVRunner},
	}
	for _, pt := range ports {
		// Up to three attempts: the guard asserts the fast core *can*
		// sustain the ratio, and contention only ever lowers a measured
		// ratio, so one quiet attempt is conclusive while a single noisy
		// one is not.
		var slow, fast corebench.Result
		var ratio float64
		for attempt := 0; attempt < 3; attempt++ {
			slow, fast, ratio = corebench.Speedup(pt.newRunner, 5)
			t.Logf("%s: oracle=%.0f fast=%.0f ns/kcycle speedup=%.1fx (%d sim cycles)",
				pt.name, slow.NsPerKCycle(), fast.NsPerKCycle(), ratio, fast.SimCycles)
			if ratio >= 5 {
				break
			}
		}
		// The persistent machines run phase-shifted after their warmup, so
		// per-run cycle counts differ by a hair; byte-exact equality is
		// the difftest suite's job. This only sanity-checks the workloads.
		dc := float64(slow.SimCycles) - float64(fast.SimCycles)
		if dc < -500 || dc > 500 {
			t.Fatalf("%s: cores ran different workloads: oracle=%d fast=%d sim cycles",
				pt.name, slow.SimCycles, fast.SimCycles)
		}
		if ratio < 5 {
			t.Errorf("%s: fast core only %.1fx faster than the oracle core (need >= 5x)", pt.name, ratio)
		}
	}
}

// lookupMachine builds an oracle-core machine with n single-block
// programs loaded and the PC parked on the highest-based one — the
// worst case for a linear program scan, the unremarkable case for the
// sorted lookup.
func lookupMachine(n int) *armv7m.Machine {
	mem := armv7m.NewMemory()
	if _, err := mem.Map("flash", 0, 0x8_0000); err != nil {
		panic(err)
	}
	if _, err := mem.Map("ram", 0x2000_0000, 0x1_0000); err != nil {
		panic(err)
	}
	m := armv7m.NewMachine(mem)
	var last uint32
	for i := 0; i < n; i++ {
		base := uint32(0x100 + i*0x40)
		a := armv7m.NewAssembler(base)
		a.Label("spin").
			Emit(armv7m.AddImm{Rd: armv7m.R0, Rn: armv7m.R0, Imm: 1}).
			Emit(armv7m.AddImm{Rd: armv7m.R1, Rn: armv7m.R1, Imm: 1}).
			BTo(armv7m.AL, "spin")
		if err := m.LoadProgram(a.MustAssemble()); err != nil {
			panic(err)
		}
		last = base
	}
	m.CPU.PC = last
	m.CPU.MSP = 0x2000_FF00
	return m
}

// TestProgramLookupScalingGuard pins the sorted program lookup: the
// per-instruction cost of the oracle core must not grow linearly with
// the number of loaded programs. With the binary search, going from 4
// to 512 programs costs a few extra comparisons per fetch; with the old
// linear scan it cost ~128x more, so the 8x ceiling cleanly separates
// the two while leaving plenty of room for timing noise.
func TestProgramLookupScalingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	const budget = 30_000
	perCycle := func(n int) time.Duration {
		m := lookupMachine(n)
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			stop, err := m.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			if stop.Reason != armv7m.StopBudget {
				t.Fatalf("unexpected stop %v", stop.Reason)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	perCycle(4) // warm allocations before the timed trials
	few := perCycle(4)
	many := perCycle(512)
	ratio := float64(many) / float64(few)
	t.Logf("4 programs: %v/run, 512 programs: %v/run, ratio=%.2fx", few, many, ratio)
	if ratio > 8 {
		t.Errorf("program lookup cost grew %.1fx from 4 to 512 loaded programs (need <= 8x; linear scan would be ~128x)", ratio)
	}
}
