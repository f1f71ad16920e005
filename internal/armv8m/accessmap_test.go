package armv8m

import (
	"testing"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// TestAccessibleUserWrapRegression pins the uint32-wrap fix at the top of
// the address space: a region whose inclusive limit block is 0xFFFF_FFE0
// reaches the last byte, and queries past 2^32 neither wrap into low
// memory nor scan for ~4 billion iterations.
func TestAccessibleUserWrapRegression(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(0, 0xFFFF_FF00|EncodeRBAR(mpu.ReadWriteOnly), 0xFFFF_FFE0|RLAREnable); err != nil {
		t.Fatal(err)
	}
	if !h.AccessibleUser(0xFFFF_FFE0, 0x20, mpu.AccessWrite) {
		t.Fatal("range ending exactly at 2^32 denied inside an RW region")
	}
	if h.AccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("range past 2^32 reported fully accessible: those bytes do not exist")
	}
	if !h.AnyAccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("clipped any-query denied despite accessible bytes below 2^32")
	}
	// A low RW region must not satisfy a wrapping query.
	if err := h.WriteRegion(1, 0x0000_0000|EncodeRBAR(mpu.ReadWriteOnly), 0x0000_00E0|RLAREnable); err != nil {
		t.Fatal(err)
	}
	if h.AccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("wrapping range satisfied by low-memory region")
	}
	if h.AccessibleUser(0x10, 0xFFFF_FFFF, mpu.AccessWrite) {
		t.Fatal("near-2^32 length reported accessible")
	}
}

// TestAccessMapCacheInvalidation: queries share one build; WriteRegion,
// ClearRegion and WriteCtrl each force exactly one rebuild.
func TestAccessMapCacheInvalidation(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(0, 0x2000_0000|EncodeRBAR(mpu.ReadWriteOnly), 0x2000_03E0|RLAREnable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !h.AccessibleUser(0x2000_0000, 1024, mpu.AccessWrite) {
			t.Fatal("configured region not accessible")
		}
	}
	if h.MapBuilds != 1 {
		t.Fatalf("MapBuilds = %d after repeated queries, want 1", h.MapBuilds)
	}
	if err := h.WriteRegion(1, 0x2000_0400|EncodeRBAR(mpu.ReadOnly), 0x2000_07E0|RLAREnable); err != nil {
		t.Fatal(err)
	}
	h.AccessibleUser(0x2000_0400, 1024, mpu.AccessRead)
	if h.MapBuilds != 2 {
		t.Fatalf("MapBuilds = %d after WriteRegion, want 2", h.MapBuilds)
	}
	if err := h.ClearRegion(1); err != nil {
		t.Fatal(err)
	}
	if h.AccessibleUser(0x2000_0400, 1024, mpu.AccessRead) {
		t.Fatal("cleared region still accessible: stale map")
	}
	if h.MapBuilds != 3 {
		t.Fatalf("MapBuilds = %d after ClearRegion, want 3", h.MapBuilds)
	}
	h.WriteCtrl(CtrlPrivDefEna)
	if !h.AccessibleUser(0xDEAD_0000, 64, mpu.AccessWrite) {
		t.Fatal("disabled MPU denied access: MPU_CTRL write missed")
	}
	if h.MapBuilds != 4 {
		t.Fatalf("MapBuilds = %d after WriteCtrl disabled the MPU, want 4", h.MapBuilds)
	}
	h.WriteCtrl(CtrlEnable)
	h.AccessibleUser(0x2000_0000, 1024, mpu.AccessWrite)
	if h.MapBuilds != 5 {
		t.Fatalf("MapBuilds = %d after WriteCtrl cleared PRIVDEFENA, want 5", h.MapBuilds)
	}
}

// FuzzAccessMapEquivalence: for arbitrary validated register pairs the
// interval map must agree with the per-byte oracle on both query forms,
// for every access kind.
func FuzzAccessMapEquivalence(f *testing.F) {
	f.Add(uint32(0x2000_0000|2<<RBARAPShift), uint32(0x2000_03E0|RLAREnable), uint32(0x2000_0000), uint16(1024))
	f.Add(uint32(0xFFFF_FF00), uint32(0xFFFF_FFE0|RLAREnable), uint32(0xFFFF_FFE0), uint16(0x40))
	f.Add(uint32(0), uint32(0), uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, rbar, rlar, start uint32, length uint16) {
		h := NewMPUHardware()
		h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
		_ = h.WriteRegion(0, rbar, rlar) // rejects (limit<base) are fine
		for _, kind := range []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite, mpu.AccessExecute} {
			if got, want := h.AccessibleUser(start, uint32(length), kind), h.AccessibleUserByteScan(start, uint32(length), kind); got != want {
				t.Fatalf("AccessibleUser(0x%08x, %d, %v) = %v, byte scan says %v", start, length, kind, got, want)
			}
			any := false
			end := uint64(start) + uint64(length)
			if end > accessmap.AddressSpace {
				end = accessmap.AddressSpace
			}
			for a := uint64(start); a < end && !any; a++ {
				any = h.Allows(uint32(a), kind, false)
			}
			if got := h.AnyAccessibleUser(start, uint32(length), kind); got != any {
				t.Fatalf("AnyAccessibleUser(0x%08x, %d, %v) = %v, byte scan says %v", start, length, kind, got, any)
			}
		}
	})
}
