package core

import (
	"testing"
	"testing/quick"

	"ticktock/internal/armv7m"
	"ticktock/internal/mpu"
)

func TestCortexMRegionDecoding(t *testing.T) {
	// 1024-byte footprint at 0x20000000, 5 of 8 subregions enabled, rw-.
	r := newCortexMRegion(0, 0x2000_0000, 1024, 5, mpu.ReadWriteOnly)
	if !r.IsSet() {
		t.Fatal("not set")
	}
	if r.RegionID() != 0 {
		t.Fatalf("id=%d", r.RegionID())
	}
	s, ok := r.Start()
	if !ok || s != 0x2000_0000 {
		t.Fatalf("start=0x%x ok=%v", s, ok)
	}
	sz, ok := r.Size()
	if !ok || sz != 5*128 {
		t.Fatalf("size=%d", sz)
	}
	if !r.AllowsPermissions(mpu.ReadWriteOnly) {
		t.Fatal("perm decode failed")
	}
	if r.AllowsPermissions(mpu.ReadExecuteOnly) {
		t.Fatal("wrong perms matched")
	}
	if !r.Overlaps(0x2000_0000, 0x2000_0001) {
		t.Fatal("overlap with first byte missed")
	}
	if r.Overlaps(0x2000_0000+5*128, 0x2000_0400) {
		t.Fatal("overlap reported in disabled subregions")
	}
}

func TestCortexMUnsetRegion(t *testing.T) {
	r := unsetCortexMRegion(3)
	if r.IsSet() {
		t.Fatal("unset region reports set")
	}
	if r.RegionID() != 3 {
		t.Fatalf("id=%d", r.RegionID())
	}
	if _, ok := r.Start(); ok {
		t.Fatal("unset region has a start")
	}
	if r.Overlaps(0, 0xFFFF_FFFF) {
		t.Fatal("unset region overlaps")
	}
	if r.AllowsPermissions(mpu.NoAccess) {
		t.Fatal("unset region matches permissions")
	}
}

func newCortexDriver() *CortexMMPU {
	return NewCortexMMPU(armv7m.NewMPUHardware())
}

func TestCortexMNewRegionsSmallRequest(t *testing.T) {
	c := newCortexDriver()
	r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x10000, 100, 100, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	start, end, ok := AccessibleSpan[CortexMRegion](r0, r1)
	if !ok {
		t.Fatal("span broken")
	}
	if start != 0x2000_0000 {
		t.Fatalf("start=0x%x", start)
	}
	if end-start < 100 {
		t.Fatalf("accessible %d < requested 100", end-start)
	}
	if r1.IsSet() {
		t.Fatal("tiny request used two regions")
	}
	if r0.RegionID() != RAMRegion0 {
		t.Fatalf("r0 id=%d", r0.RegionID())
	}
}

func TestCortexMNewRegionsTwoRegionRequest(t *testing.T) {
	c := newCortexDriver()
	// 6000 bytes: footprint 4096 gives 512-byte subregions; 12 needed
	// spans both regions.
	r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x10000, 6000, 6000, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	if !r1.IsSet() {
		t.Fatal("second region not used")
	}
	start, end, ok := AccessibleSpan[CortexMRegion](r0, r1)
	if !ok {
		t.Fatal("regions not contiguous")
	}
	if end-start < 6000 {
		t.Fatalf("accessible=%d", end-start)
	}
	// Subregion granularity: accessible is a multiple of footprint/8.
	if (end-start)%(r0.footprint()/8) != 0 {
		t.Fatalf("accessible %d not multiple of subregion", end-start)
	}
}

func TestCortexMNewRegionsAlignsStart(t *testing.T) {
	c := newCortexDriver()
	// Unaligned pool start: region base must move up to alignment.
	r0, _, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0123, 0x10000, 1000, 1000, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	s, _ := r0.Start()
	if s < 0x2000_0123 {
		t.Fatalf("start 0x%x below pool", s)
	}
	if s%r0.footprint() != 0 {
		t.Fatalf("start 0x%x not aligned to footprint %d", s, r0.footprint())
	}
}

func TestCortexMNewRegionsFailsWhenPoolTooSmall(t *testing.T) {
	c := newCortexDriver()
	if _, _, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 512, 4096, 4096, mpu.ReadWriteOnly); ok {
		t.Fatal("oversized request satisfied")
	}
	if _, _, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x1000, 0, 0, mpu.ReadWriteOnly); ok {
		t.Fatal("zero request satisfied")
	}
}

func TestCortexMUpdateRegionsGrowAndShrink(t *testing.T) {
	c := newCortexDriver()
	r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x10000, 1024, 2048, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	start, _, _ := AccessibleSpan[CortexMRegion](r0, r1)
	fp := r0.footprint()

	// Grow to 1.5 footprints: needs both regions.
	n0, n1, ok := c.UpdateRegions(r0, r1, start, 2*fp, fp+fp/2, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("grow failed")
	}
	_, end, sok := AccessibleSpan[CortexMRegion](n0, n1)
	if !sok || end-start < fp+fp/2 {
		t.Fatalf("grown accessible=%d", end-start)
	}
	if !n1.IsSet() {
		t.Fatal("grow did not engage region 1")
	}

	// Shrink back to one subregion.
	s0, s1, ok := c.UpdateRegions(n0, n1, start, 2*fp, 1, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("shrink failed")
	}
	_, send, _ := AccessibleSpan[CortexMRegion](s0, s1)
	if send-start != fp/8 {
		t.Fatalf("shrunk accessible=%d, want one subregion %d", send-start, fp/8)
	}
	if s1.IsSet() {
		t.Fatal("shrink left region 1 set")
	}
}

func TestCortexMUpdateRegionsRespectsAvailableSize(t *testing.T) {
	c := newCortexDriver()
	r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x10000, 1024, 2048, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	start, _, _ := AccessibleSpan[CortexMRegion](r0, r1)
	fp := r0.footprint()
	// Ask for more than availableSize admits: must fail, not over-grant.
	if _, _, ok := c.UpdateRegions(r0, r1, start, fp/2, fp, mpu.ReadWriteOnly); ok {
		t.Fatal("update exceeded availableSize")
	}
	// Unset base region must fail.
	if _, _, ok := c.UpdateRegions(unsetCortexMRegion(0), r1, start, fp, 10, mpu.ReadWriteOnly); ok {
		t.Fatal("update of unset region succeeded")
	}
	// Moved base must fail.
	if _, _, ok := c.UpdateRegions(r0, r1, start+32, fp, 10, mpu.ReadWriteOnly); ok {
		t.Fatal("update with moved base succeeded")
	}
}

func TestCortexMNewExactRegion(t *testing.T) {
	c := newCortexDriver()
	// Power-of-two, aligned: representable.
	r, ok := c.NewExactRegion(FlashRegionNumber, 0x0004_0000, 0x1000, mpu.ReadExecuteOnly)
	if !ok {
		t.Fatal("pow2 exact region failed")
	}
	if !CanAccess(r, 0x0004_0000, 0x0004_1000, mpu.ReadExecuteOnly) {
		t.Fatal("exact region does not CanAccess its span")
	}
	// Non-pow2 but subregion-representable: 96 = 3 * (256/8).
	r2, ok := c.NewExactRegion(FlashRegionNumber, 0x0004_0000, 96, mpu.ReadExecuteOnly)
	if !ok {
		t.Fatal("subregion-exact region failed")
	}
	if sz, _ := r2.Size(); sz != 96 {
		t.Fatalf("size=%d", sz)
	}
	// Unrepresentable: misaligned base.
	if _, ok := c.NewExactRegion(FlashRegionNumber, 0x0004_0004, 0x1000, mpu.ReadExecuteOnly); ok {
		t.Fatal("misaligned exact region accepted")
	}
	// Below the architectural minimum.
	if _, ok := c.NewExactRegion(FlashRegionNumber, 0x0004_0000, 16, mpu.ReadExecuteOnly); ok {
		t.Fatal("16-byte region accepted")
	}
}

func TestCortexMConfigureMPUWritesHardware(t *testing.T) {
	c := newCortexDriver()
	r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, 0x2000_0000, 0x10000, 1024, 2048, mpu.ReadWriteOnly)
	if !ok {
		t.Fatal("NewRegions failed")
	}
	regions := make([]CortexMRegion, c.NumRegions())
	for i := range regions {
		regions[i] = c.UnsetRegion(i)
	}
	regions[RAMRegion0], regions[RAMRegion1] = r0, r1
	c.HW.ResetWriteLog()
	if err := c.ConfigureMPU(regions); err != nil {
		t.Fatal(err)
	}
	if c.HW.Snapshot().Ctrl&armv7m.CtrlEnable == 0 {
		t.Fatal("MPU not enabled")
	}
	// All 8 regions written, in ascending order.
	log := c.HW.RegionWriteLog
	if len(log) != armv7m.NumRegions {
		t.Fatalf("wrote %d regions", len(log))
	}
	for i, n := range log {
		if n != i {
			t.Fatalf("write order %v", log)
		}
	}
	// Hardware now admits the accessible span for user code.
	start, end, _ := AccessibleSpan[CortexMRegion](r0, r1)
	if !c.HW.AccessibleUser(start, end-start, mpu.AccessWrite) {
		t.Fatal("configured hardware denies the accessible span")
	}
	if c.HW.Allows(end, mpu.AccessRead, false) {
		t.Fatal("configured hardware admits past the accessible span")
	}
}

func TestCortexMScrambledWriteOrder(t *testing.T) {
	c := newCortexDriver()
	c.ScrambleWriteOrder = true
	regions := make([]CortexMRegion, c.NumRegions())
	for i := range regions {
		regions[i] = c.UnsetRegion(i)
	}
	c.HW.ResetWriteLog()
	if err := c.ConfigureMPU(regions); err != nil {
		t.Fatal(err)
	}
	log := c.HW.RegionWriteLog
	if log[0] == 0 {
		t.Fatalf("scrambled order still ascending: %v", log)
	}
}

// Property: whatever NewRegions returns, the accessible span it reports is
// exactly what the hardware admits after ConfigureMPU — the §4.4 driver
// obligation, checked against the bit-level Allows.
func TestCortexMDriverHardwareAgreementProperty(t *testing.T) {
	f := func(startSel uint8, sizeSel uint16) bool {
		c := newCortexDriver()
		unallocStart := 0x2000_0000 + uint32(startSel)*64
		totalSize := uint32(sizeSel)%8000 + 1
		r0, r1, ok := c.NewRegions(MaxRAMRegionNumber, unallocStart, 0x2_0000, totalSize, totalSize, mpu.ReadWriteOnly)
		if !ok {
			return true // constraint failure is an allowed outcome
		}
		regions := make([]CortexMRegion, c.NumRegions())
		for i := range regions {
			regions[i] = c.UnsetRegion(i)
		}
		regions[RAMRegion0], regions[RAMRegion1] = r0, r1
		if err := c.ConfigureMPU(regions); err != nil {
			return false
		}
		start, end, sok := AccessibleSpan[CortexMRegion](r0, r1)
		if !sok || end-start < totalSize {
			return false
		}
		// Boundary probes: first byte in, last byte in, one before,
		// one after — plus subregion boundaries.
		if !c.HW.Allows(start, mpu.AccessWrite, false) {
			return false
		}
		if !c.HW.Allows(end-1, mpu.AccessWrite, false) {
			return false
		}
		if start > 0 && c.HW.Allows(start-1, mpu.AccessWrite, false) {
			return false
		}
		if c.HW.Allows(end, mpu.AccessWrite, false) {
			return false
		}
		sub := r0.footprint() / 8
		for a := start; a < end; a += sub {
			if !c.HW.Allows(a, mpu.AccessRead, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
