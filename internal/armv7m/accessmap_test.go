package armv7m

import (
	"testing"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// TestAccessibleUserWrapRegression pins the uint32-wrap fix: a range
// crossing the top of the address space must not wrap into low memory
// (the old start+length overflow made AccessibleUser consult wrapped low
// addresses) and a near-2^32 length must return without a ~4-billion
// iteration scan.
func TestAccessibleUserWrapRegression(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(0, 0xFFFF_FF00, mkRASR(256, 0, mpu.ReadWriteOnly, true)); err != nil {
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
	if !h.AccessibleUserByteScan(0xFFFF_FFE0, 0x20, mpu.AccessWrite) ||
		h.AccessibleUserByteScan(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("byte-scan oracle disagrees at the address-space edge")
	}
	// Map a second, low region: a wrapping query must not leak into it.
	if err := h.WriteRegion(1, 0x0000_0000, mkRASR(256, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if h.AccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("wrapping range satisfied by low-memory region")
	}
	if h.AccessibleUser(0x10, 0xFFFF_FFFF, mpu.AccessWrite) {
		t.Fatal("near-2^32 length reported accessible")
	}
}

// TestAccessMapCacheInvalidation is the ablation guard for the access-map
// cache: queries reuse one build, and every mutation path — validated
// writes, clears, raw fault-injection flips, snapshot restores and
// MPU_CTRL writes — forces exactly one rebuild.
func TestAccessMapCacheInvalidation(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if !h.AccessibleUser(0x2000_0000, 1024, mpu.AccessWrite) {
		t.Fatal("configured region not accessible")
	}
	for i := 0; i < 100; i++ {
		h.AccessibleUser(0x2000_0000, 1024, mpu.AccessRead)
		h.AnyAccessibleUser(0, 64, mpu.AccessRead)
	}
	if h.MapBuilds != 1 {
		t.Fatalf("MapBuilds = %d after repeated queries, want 1 (cache must hold)", h.MapBuilds)
	}

	if err := h.WriteRegion(1, 0x2000_0400, mkRASR(1024, 0, mpu.ReadOnly, true)); err != nil {
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

	// FlipBits bypasses validation but must still invalidate: the old
	// answer would otherwise survive the upset.
	h.FlipBits(0, 0, RASREnable)
	if h.AccessibleUser(0x2000_0000, 1024, mpu.AccessWrite) {
		t.Fatal("region disabled by bit flip still reported accessible")
	}
	if h.MapBuilds != 4 {
		t.Fatalf("MapBuilds = %d after FlipBits, want 4", h.MapBuilds)
	}

	snap := h.Snapshot()
	h.Restore(snap)
	h.AccessibleUser(0x2000_0000, 1024, mpu.AccessWrite)
	if h.MapBuilds != 5 {
		t.Fatalf("MapBuilds = %d after Restore, want 5", h.MapBuilds)
	}

	// MPU_CTRL is a register like the region pairs: its write
	// invalidates.
	h.WriteCtrl(CtrlPrivDefEna)
	if !h.AccessibleUser(0xDEAD_0000, 64, mpu.AccessWrite) {
		t.Fatal("disabled MPU denied access: MPU_CTRL write missed")
	}
	if h.MapBuilds != 6 {
		t.Fatalf("MapBuilds = %d after WriteCtrl, want 6", h.MapBuilds)
	}
}

// FuzzAccessMapEquivalence: for arbitrary register states — one region
// written through the validated path, one corrupted through the raw
// fault-injection path — the interval map must agree with the per-byte
// oracle on both the all-bytes and any-byte queries, for every access
// kind.
func FuzzAccessMapEquivalence(f *testing.F) {
	f.Add(uint32(0x2000_0000), uint32(0x2001|RASREnable), uint32(0), uint32(0), uint32(0x2000_0000), uint16(64))
	f.Add(uint32(0xFFFF_FF00), mkRASR(256, 0x42, mpu.ReadWriteOnly, true), uint32(0x20), uint32(RASREnable|5<<RASRSizeShift), uint32(0xFFFF_FFE0), uint16(0x40))
	f.Add(uint32(0), uint32(0), uint32(0xFFFF_FFFF), uint32(0xFFFF_FFFF), uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, rbar, rasr, rbarXor, rasrXor, start uint32, length uint16) {
		h := NewMPUHardware()
		h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
		_ = h.WriteRegion(0, rbar, rasr) // validated path; rejects are fine
		h.FlipBits(1, rbarXor, rasrXor)  // raw path reaches illegal states
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
