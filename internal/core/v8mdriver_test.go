package core

import (
	"testing"
	"testing/quick"

	"ticktock/internal/armv8m"
	"ticktock/internal/mpu"
)

func newV8MAllocator() (*AppMemoryAllocator[V8MRegion], *V8MMPU) {
	drv := NewV8MMPU(armv8m.NewMPUHardware())
	return NewAllocator[V8MRegion](drv, Config{}), drv
}

func TestV8MRegionDecoding(t *testing.T) {
	r := newV8MRegion(1, 0x2000_0040, 0x200, mpu.ReadWriteOnly)
	if !r.IsSet() || r.RegionID() != 1 {
		t.Fatalf("region=%+v", r)
	}
	s, _ := r.Start()
	sz, _ := r.Size()
	if s != 0x2000_0040 || sz != 0x200 {
		t.Fatalf("span=0x%x+0x%x", s, sz)
	}
	if !r.AllowsPermissions(mpu.ReadWriteOnly) || r.AllowsPermissions(mpu.ReadExecuteOnly) {
		t.Fatal("perm decode wrong")
	}
	if !r.Overlaps(0x2000_0100, 0x2000_0101) || r.Overlaps(0x2000_0240, 0x2000_0300) {
		t.Fatal("overlap decode wrong")
	}
}

func TestV8MHardwareRejectsOverlappingRegions(t *testing.T) {
	hw := armv8m.NewMPUHardware()
	r1 := newV8MRegion(0, 0x2000_0000, 0x100, mpu.ReadWriteOnly)
	r2 := newV8MRegion(1, 0x2000_00E0, 0x100, mpu.ReadOnly) // overlaps r1
	if err := hw.WriteRegion(0, r1.rbar, r1.rlar); err != nil {
		t.Fatal(err)
	}
	if err := hw.WriteRegion(1, r2.rbar, r2.rlar); err == nil {
		t.Fatal("overlapping region accepted")
	}
	// Adjacent is fine.
	r3 := newV8MRegion(1, 0x2000_0100, 0x100, mpu.ReadOnly)
	if err := hw.WriteRegion(1, r3.rbar, r3.rlar); err != nil {
		t.Fatal(err)
	}
}

func TestV8MGenericAllocatorEndToEnd(t *testing.T) {
	// The unchanged generic allocator over the v8-M driver: allocate,
	// check correspondence, configure, probe the hardware, brk, grant.
	a, drv := newV8MAllocator()
	if err := a.AllocateAppMemory(0x2000_0000, 0x2_0000, 12000, 4096, 1024, 0x0008_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
	if err := a.ConfigureMPU(); err != nil {
		t.Fatal(err)
	}
	b := a.Breaks()
	hw := drv.HW
	if !hw.AccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), mpu.AccessWrite) {
		t.Fatal("accessible RAM denied")
	}
	if hw.Allows(b.KernelBreak(), mpu.AccessRead, false) {
		t.Fatal("grant user-readable")
	}
	if !hw.AccessibleUser(0x0008_0000, 0x1000, mpu.AccessExecute) {
		t.Fatal("flash execute denied")
	}
	// v8-M allocates to the exact 32-byte granule: accessible equals the
	// request rounded to 32.
	if got := b.AppBreak() - b.MemoryStart(); got != 4096 {
		t.Fatalf("accessible=%d, want exactly 4096 (no pow2 rounding)", got)
	}
	// brk + grant still work through the same generic paths.
	if err := a.Brk(b.MemoryStart() + 5000); err != nil {
		t.Fatalf("brk: %v", err)
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocateGrant(64); err != nil {
		t.Fatalf("grant: %v", err)
	}
	if err := a.ConfigureMPU(); err != nil {
		t.Fatal(err)
	}
	if hw.Allows(a.Breaks().KernelBreak(), mpu.AccessWrite, false) {
		t.Fatal("grown grant user-writable")
	}
}

func TestV8MSingleRAMRegion(t *testing.T) {
	a, _ := newV8MAllocator()
	if err := a.AllocateAppMemory(0x2000_0000, 0x2_0000, 0, 9000, 512, 0x0008_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if a.Regions()[RAMRegion1].IsSet() {
		t.Fatal("v8-M used two RAM regions")
	}
}

func TestV8MExactRegionValidation(t *testing.T) {
	drv := NewV8MMPU(armv8m.NewMPUHardware())
	if _, ok := drv.NewExactRegion(2, 0x0008_0010, 0x100, mpu.ReadExecuteOnly); ok {
		t.Fatal("misaligned base accepted")
	}
	if _, ok := drv.NewExactRegion(2, 0x0008_0000, 0x101, mpu.ReadExecuteOnly); ok {
		t.Fatal("misaligned size accepted")
	}
	if _, ok := drv.NewExactRegion(2, 0x0008_0000, 0x100, mpu.ReadExecuteOnly); !ok {
		t.Fatal("aligned exact region rejected")
	}
}

// Property: the same isolation property as the other drivers — a
// successful allocation never lets a user access reach the grant region
// or beyond the block, as checked against the v8-M hardware model.
func TestV8MIsolationProperty(t *testing.T) {
	f := func(appSel, kernelSel uint16) bool {
		appSize := uint32(appSel)%10000 + 1
		kernelSize := uint32(kernelSel)%2000 + 8
		a, drv := newV8MAllocator()
		if err := a.AllocateAppMemory(0x2000_0000, 0x4_0000, appSize*2+kernelSize+4096, appSize, kernelSize, 0x0008_0000, 0x1000); err != nil {
			return true
		}
		if err := a.CheckCorrespondence(); err != nil {
			return false
		}
		if err := a.ConfigureMPU(); err != nil {
			return false
		}
		b := a.Breaks()
		for addr := b.KernelBreak(); addr < b.MemoryEnd(); addr += 16 {
			if drv.HW.Allows(addr, mpu.AccessRead, false) {
				return false
			}
		}
		return !drv.HW.Allows(b.MemoryEnd(), mpu.AccessWrite, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
