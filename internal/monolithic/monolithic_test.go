package monolithic

import (
	"errors"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/mpu"
	"ticktock/internal/verify"
)

func newDriver(bugs BugSet) *MPU {
	m := New(armv7m.NewMPUHardware())
	m.Bugs = bugs
	return m
}

func TestAllocateBasic(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	start, size, ok := m.AllocateAppMemRegion(0x2000_0000, 0x2_0000, 8192, 2048, 1024, &cfg)
	if !ok {
		t.Fatal("allocation failed")
	}
	if !verify.IsPow2(size) {
		t.Fatalf("block size %d not a power of two — the hardware constraint leaks into the layout", size)
	}
	if start%cfg.RegionSize != 0 {
		t.Fatalf("start 0x%x not aligned to region size %d", start, cfg.RegionSize)
	}
	// The enabled subregions must cover the app request.
	if cfg.SubregsEnabledEnd() < start+2048 {
		t.Fatalf("enabled end 0x%x below app need", cfg.SubregsEnabledEnd())
	}
	// Fixed code: enabled subregions never reach the grant region.
	kernelBreak := start + size - 1024
	if cfg.SubregsEnabledEnd() > kernelBreak {
		t.Fatalf("fixed allocator overlaps grant: end=0x%x break=0x%x", cfg.SubregsEnabledEnd(), kernelBreak)
	}
}

func TestAllocateRejectsOversized(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	if _, _, ok := m.AllocateAppMemRegion(0x2000_0000, 1024, 0, 8192, 1024, &cfg); ok {
		t.Fatal("oversized allocation succeeded")
	}
}

// searchGrantOverlap exhaustively enumerates allocation parameters over a
// bounded domain and returns the first parameter set for which the enabled
// subregions overlap the kernel grant region — the postcondition the paper
// wrote for allocate_app_memory_region. This is exactly the bounded-model-
// checking obligation the verify package runs; inlined here so the bug
// tests are self-contained.
func searchGrantOverlap(m *MPU) (params [4]uint32, found bool) {
	for _, unallocStart := range []uint32{0x2000_0000, 0x2000_0100, 0x2000_0300, 0x2000_0700} {
		for _, appSize := range verify.Range(256, 4096, 192) {
			for _, kernelSize := range []uint32{128, 340, 512, 1000} {
				for _, minSize := range []uint32{0, appSize + kernelSize + 600} {
					var cfg MpuConfig
					start, size, ok := m.AllocateAppMemRegion(unallocStart, 0x8_0000, minSize, appSize, kernelSize, &cfg)
					if !ok {
						continue
					}
					kernelBreak := start + size - kernelSize
					if cfg.SubregsEnabledEnd() > kernelBreak {
						return [4]uint32{unallocStart, minSize, appSize, kernelSize}, true
					}
				}
			}
		}
	}
	return params, false
}

func TestGrantOverlapBugRediscovered(t *testing.T) {
	// With the bug enabled the checker finds a concrete counterexample
	// (the paper's §3.4 scenario); with the upstream fix it finds none.
	buggy := newDriver(BugSet{GrantOverlap: true})
	params, found := searchGrantOverlap(buggy)
	if !found {
		t.Fatal("checker failed to rediscover tock#4366 on the buggy allocator")
	}
	t.Logf("counterexample: unallocStart=0x%x minSize=%d appSize=%d kernelSize=%d",
		params[0], params[1], params[2], params[3])

	fixed := newDriver(BugSet{})
	if p, found := searchGrantOverlap(fixed); found {
		t.Fatalf("fixed allocator still overlaps grant at %v", p)
	}
}

func TestGrantOverlapBreaksIsolationOnHardware(t *testing.T) {
	// Drive the buggy configuration into the MPU model and show a user
	// access to grant memory is admitted — the end-to-end isolation
	// break, not just a failed postcondition.
	m := newDriver(BugSet{GrantOverlap: true})
	params, found := searchGrantOverlap(m)
	if !found {
		t.Skip("no counterexample in domain")
	}
	var cfg MpuConfig
	start, size, ok := m.AllocateAppMemRegion(params[0], 0x8_0000, params[1], params[2], params[3], &cfg)
	if !ok {
		t.Fatal("counterexample no longer allocates")
	}
	if err := m.ConfigureMPU(&cfg); err != nil {
		t.Fatal(err)
	}
	kernelBreak := start + size - params[3]
	if !m.HW.Allows(kernelBreak, mpu.AccessWrite, false) {
		t.Fatal("expected user write to grant start to be admitted under the bug")
	}
}

func TestBrkUnderflowBug(t *testing.T) {
	alloc := func(bugs BugSet) (*MPU, *MpuConfig, uint32, uint32) {
		m := newDriver(bugs)
		var cfg MpuConfig
		start, size, ok := m.AllocateAppMemRegion(0x2000_0000, 0x2_0000, 8192, 2048, 1024, &cfg)
		if !ok {
			t.Fatal("allocation failed")
		}
		return m, &cfg, start, size
	}

	// Fixed kernel: the malicious break below region start is rejected
	// with a contract error, no panic.
	m, cfg, start, size := alloc(BugSet{})
	err := m.UpdateAppMemRegion(start-64, start+size-1024, cfg)
	var ce *verify.ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("fixed kernel: want ContractError, got %v", err)
	}

	// Buggy kernel: the same syscall argument reaches the wrapping
	// arithmetic and panics the kernel (denial of service for every
	// process on the chip).
	mb, cfgb, startb, sizeb := alloc(BugSet{BrkUnderflow: true})
	err = mb.UpdateAppMemRegion(startb-64, startb+sizeb-1024, cfgb)
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("buggy kernel: want kernel panic, got %v", err)
	}
}

func TestUpdateAppMemRegionLegal(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	start, size, ok := m.AllocateAppMemRegion(0x2000_0000, 0x2_0000, 8192, 2048, 1024, &cfg)
	if !ok {
		t.Fatal("allocation failed")
	}
	kernelBreak := start + size - 1024
	if err := m.UpdateAppMemRegion(start+4000, kernelBreak, &cfg); err != nil {
		t.Fatalf("legal grow rejected: %v", err)
	}
	if cfg.SubregsEnabledEnd() < start+4000 {
		t.Fatal("grow did not extend enabled subregions")
	}
	if cfg.SubregsEnabledEnd() > kernelBreak {
		t.Fatal("grow overlapped grant")
	}
	if err := m.UpdateAppMemRegion(start+100, kernelBreak, &cfg); err != nil {
		t.Fatalf("legal shrink rejected: %v", err)
	}
}

func TestUpdateWithoutAllocationFails(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	if err := m.UpdateAppMemRegion(0x2000_1000, 0x2000_2000, &cfg); err == nil {
		t.Fatal("update without allocation succeeded")
	}
}

func TestAllocateFlashRegion(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	if !m.AllocateFlashRegion(0x0004_0000, 0x1000, &cfg) {
		t.Fatal("pow2 flash failed")
	}
	if cfg.RASR[2]&armv7m.RASREnable == 0 {
		t.Fatal("flash region not enabled")
	}
	if !m.AllocateFlashRegion(0x0004_0000, 96, &cfg) {
		t.Fatal("subregion flash failed")
	}
	if m.AllocateFlashRegion(0x0004_0004, 0x1000, &cfg) {
		t.Fatal("misaligned flash accepted")
	}
	if m.AllocateFlashRegion(0x0004_0000, 8, &cfg) {
		t.Fatal("undersized flash accepted")
	}
}

func TestConfigureMPUWritesAllRegions(t *testing.T) {
	m := newDriver(BugSet{})
	var cfg MpuConfig
	if _, _, ok := m.AllocateAppMemRegion(0x2000_0000, 0x2_0000, 8192, 2048, 1024, &cfg); !ok {
		t.Fatal("allocation failed")
	}
	m.HW.ResetWriteLog()
	if err := m.ConfigureMPU(&cfg); err != nil {
		t.Fatal(err)
	}
	if len(m.HW.RegionWriteLog) != armv7m.NumRegions {
		t.Fatalf("wrote %d regions", len(m.HW.RegionWriteLog))
	}
	if m.HW.Snapshot().Ctrl&armv7m.CtrlEnable == 0 {
		t.Fatal("MPU not enabled")
	}
	m.DisableMPU()
	if m.HW.Snapshot().Ctrl&armv7m.CtrlEnable != 0 {
		t.Fatal("MPU not disabled")
	}
}

func TestMonolithicEnabledSubregionsCoverApp(t *testing.T) {
	// Correctness of the fixed baseline over a parameter sweep: the
	// enabled span always covers the app request and never the grant.
	m := newDriver(BugSet{})
	for _, appSize := range verify.Range(64, 6000, 123) {
		for _, kernelSize := range []uint32{256, 1024} {
			var cfg MpuConfig
			start, size, ok := m.AllocateAppMemRegion(0x2000_0040, 0x8_0000, 0, appSize, kernelSize, &cfg)
			if !ok {
				continue
			}
			end := cfg.SubregsEnabledEnd()
			if end < start+appSize {
				t.Fatalf("appSize=%d: enabled end 0x%x below app need 0x%x", appSize, end, start+appSize)
			}
			if end > start+size-kernelSize {
				t.Fatalf("appSize=%d kernelSize=%d: enabled end overlaps grant", appSize, kernelSize)
			}
		}
	}
}
