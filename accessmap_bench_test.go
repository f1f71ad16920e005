package ticktock

// Benchmarks and guards for the interval access-map engine: the O(log
// intervals) range queries that replaced the per-byte scans in the
// verification specs and the fault-injection recheck. BenchmarkAccessMap
// reports the interval-vs-bytescan timings per port; the guard tests pin
// the claimed speedup and the generation-counter cache behaviour so a
// regression (accidentally reverting to scans, or rebuilding the map per
// query) fails the suite rather than just slowing it down.

import (
	"testing"
	"time"

	"ticktock/internal/accessmap"
	"ticktock/internal/armv7m"
	"ticktock/internal/armv8m"
	"ticktock/internal/mpu"
	"ticktock/internal/riscv"
)

const (
	amQueryBase = 0x2000_0000
	amQueryLen  = 64 * 1024
	rvQueryBase = 0x8000_0000
)

// amV7M builds a v7-M MPU with a 64 KiB RW region at amQueryBase.
func amV7M() *armv7m.MPUHardware {
	h := armv7m.NewMPUHardware()
	h.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
	rasr := uint32(15)<<armv7m.RASRSizeShift | armv7m.EncodeAP(mpu.ReadWriteOnly) | armv7m.RASREnable
	if err := h.WriteRegion(0, amQueryBase, rasr); err != nil {
		panic(err)
	}
	return h
}

// amV8M builds a v8-M MPU with a 64 KiB RW region at amQueryBase.
func amV8M() *armv8m.MPUHardware {
	h := armv8m.NewMPUHardware()
	h.WriteCtrl(armv8m.CtrlEnable | armv8m.CtrlPrivDefEna)
	limit := uint32(amQueryBase + amQueryLen - armv8m.Granule)
	if err := h.WriteRegion(0, amQueryBase|armv8m.EncodeRBAR(mpu.ReadWriteOnly), limit|armv8m.RLAREnable); err != nil {
		panic(err)
	}
	return h
}

// amPMP builds a PMP with a 64 KiB RW NAPOT region at rvQueryBase.
func amPMP() *riscv.PMP {
	p := riscv.NewPMP(riscv.ChipHiFive1)
	reg, err := riscv.EncodeNAPOT(rvQueryBase, amQueryLen)
	if err != nil {
		panic(err)
	}
	if err := p.SetEntry(0, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), reg); err != nil {
		panic(err)
	}
	return p
}

// amPort is one port's acceptance query — is a full 64 KiB span at base
// user-writable? — through the interval engine and the per-byte oracle.
type amPort struct {
	name     string
	base     uint32
	interval func(start, length uint32) bool
	bytescan func(start, length uint32) bool
}

// amPorts builds the 64 KiB RW fixture on every port.
func amPorts() []amPort {
	v7, v8, pm := amV7M(), amV8M(), amPMP()
	return []amPort{
		{"armv7m", amQueryBase,
			func(s, l uint32) bool { return v7.AccessibleUser(s, l, mpu.AccessWrite) },
			func(s, l uint32) bool { return v7.AccessibleUserByteScan(s, l, mpu.AccessWrite) }},
		{"armv8m", amQueryBase,
			func(s, l uint32) bool { return v8.AccessibleUser(s, l, mpu.AccessWrite) },
			func(s, l uint32) bool { return v8.AccessibleUserByteScan(s, l, mpu.AccessWrite) }},
		{"riscv", rvQueryBase,
			func(s, l uint32) bool { return pm.AccessibleUser(s, l, mpu.AccessWrite) },
			func(s, l uint32) bool { return pm.AccessibleUserByteScan(s, l, mpu.AccessWrite) }},
	}
}

// BenchmarkAccessMap compares the interval engine against the per-byte
// oracle on the acceptance query.
func BenchmarkAccessMap(b *testing.B) {
	for _, pt := range amPorts() {
		b.Run(pt.name+"/interval", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !pt.interval(pt.base, amQueryLen) {
					b.Fatal("span not accessible")
				}
			}
		})
		b.Run(pt.name+"/bytescan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !pt.bytescan(pt.base, amQueryLen) {
					b.Fatal("span not accessible")
				}
			}
		})
	}
}

// TestAccessMapSpeedupGuard enforces the acceptance criterion on every
// port: on a 64 KiB range query, the interval engine must beat the
// per-byte scan by at least 10x. The real margin is orders of magnitude
// larger; 10x keeps the guard robust on noisy CI machines while still
// catching a revert to scanning.
func TestAccessMapSpeedupGuard(t *testing.T) {
	const intervalIters = 2000
	best := func(f func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	for _, pt := range amPorts() {
		pt.interval(pt.base, amQueryLen) // build the map outside the timed region
		intervalTotal := best(func() {
			for i := 0; i < intervalIters; i++ {
				if !pt.interval(pt.base, amQueryLen) {
					t.Fatalf("%s: span not accessible", pt.name)
				}
			}
		})
		scanTotal := best(func() {
			if !pt.bytescan(pt.base, amQueryLen) {
				t.Fatalf("%s: span not accessible", pt.name)
			}
		})
		perInterval := intervalTotal / intervalIters
		if perInterval == 0 {
			perInterval = 1
		}
		speedup := float64(scanTotal) / float64(perInterval)
		t.Logf("%s: interval=%v/query bytescan=%v/query speedup=%.0fx", pt.name, perInterval, scanTotal, speedup)
		if speedup < 10 {
			t.Errorf("%s: interval engine only %.1fx faster than byte scan on 64 KiB (need >= 10x)", pt.name, speedup)
		}
	}
}

// TestAccessMapCacheAblation is the cross-port cache guard: repeated
// queries must reuse a single build on every port, and one configuration
// change must cost exactly one rebuild. Without the generation-counter
// cache the engine would rebuild per query and the speedup claim would
// silently evaporate.
func TestAccessMapCacheAblation(t *testing.T) {
	v7, v8, pm := amV7M(), amV8M(), amPMP()
	for i := 0; i < 1000; i++ {
		v7.AccessibleUser(amQueryBase, amQueryLen, mpu.AccessWrite)
		v8.AccessibleUser(amQueryBase, amQueryLen, mpu.AccessWrite)
		pm.AccessibleUser(rvQueryBase, amQueryLen, mpu.AccessWrite)
	}
	if v7.MapBuilds != 1 || v8.MapBuilds != 1 || pm.MapBuilds != 1 {
		t.Fatalf("map builds after 1000 queries: v7m=%d v8m=%d pmp=%d, want 1 each",
			v7.MapBuilds, v8.MapBuilds, pm.MapBuilds)
	}
	v7.FlipBits(0, 0, armv7m.RASREnable)
	if err := v8.ClearRegion(0); err != nil {
		t.Fatal(err)
	}
	pm.FlipBits(0, riscv.CfgW, 0)
	for i := 0; i < 1000; i++ {
		v7.AccessibleUser(amQueryBase, amQueryLen, mpu.AccessWrite)
		v8.AccessibleUser(amQueryBase, amQueryLen, mpu.AccessWrite)
		pm.AccessibleUser(rvQueryBase, amQueryLen, mpu.AccessWrite)
	}
	if v7.MapBuilds != 2 || v8.MapBuilds != 2 || pm.MapBuilds != 2 {
		t.Fatalf("map builds after one mutation + 1000 queries: v7m=%d v8m=%d pmp=%d, want 2 each",
			v7.MapBuilds, v8.MapBuilds, pm.MapBuilds)
	}
}

// TestDeniedAllowsAllocatesNothing: a unit's decision is a bool, so a
// denial costs no allocation on any port; the machines build the fault
// value at their own fault sites. Each probe is a denial: an
// unprivileged write below the fixture's region (no region matches) and
// an unprivileged fetch inside it (XN on ARM, no X bit on the PMP).
func TestDeniedAllowsAllocatesNothing(t *testing.T) {
	v7, v8, pm := amV7M(), amV8M(), amPMP()
	for _, u := range []struct {
		name string
		unit accessmap.Unit
		base uint32
	}{{"armv7m", v7, amQueryBase}, {"armv8m", v8, amQueryBase}, {"riscv", pm, rvQueryBase}} {
		deny := func() bool {
			return u.unit.Allows(u.base-4, mpu.AccessWrite, false) || u.unit.Allows(u.base, mpu.AccessExecute, false)
		}
		if deny() {
			t.Fatalf("%s: probe admitted, want two denials", u.name)
		}
		if n := testing.AllocsPerRun(1000, func() { deny() }); n != 0 {
			t.Errorf("%s: denied Allows allocates %.0f objects per call pair, want 0", u.name, n)
		}
	}
}
