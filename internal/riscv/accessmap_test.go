package riscv

import (
	"testing"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// TestAccessibleUserWrapRegression pins the uint32-wrap fix: a NAPOT
// region at the top of the address space answers range queries without
// wrapping into low memory or scanning ~4 billion bytes.
func TestAccessibleUserWrapRegression(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	reg, err := EncodeNAPOT(0xFFFF_FF00, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
	if !p.AccessibleUser(0xFFFF_FFE0, 0x20, mpu.AccessWrite) {
		t.Fatal("range ending exactly at 2^32 denied inside an RW region")
	}
	if p.AccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("range past 2^32 reported fully accessible: those bytes do not exist")
	}
	if !p.AnyAccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("clipped any-query denied despite accessible bytes below 2^32")
	}
	// A low RW region must not satisfy a wrapping query.
	low, _ := EncodeNAPOT(0, 256)
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadWriteOnly, ANapot), low); err != nil {
		t.Fatal(err)
	}
	if p.AccessibleUser(0xFFFF_FFE0, 0x40, mpu.AccessWrite) {
		t.Fatal("wrapping range satisfied by low-memory region")
	}
	if p.AccessibleUser(0x10, 0xFFFF_FFFF, mpu.AccessWrite) {
		t.Fatal("near-2^32 length reported accessible")
	}
}

// TestAccessMapCacheInvalidation: queries share one build; SetEntry,
// ClearEntry and the raw FlipBits fault-injection path each force a
// rebuild.
func TestAccessMapCacheInvalidation(t *testing.T) {
	p := NewPMP(ChipLiteX)
	reg, _ := EncodeNAPOT(0x8000_0000, 4096)
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !p.AccessibleUser(0x8000_0000, 4096, mpu.AccessWrite) {
			t.Fatal("configured region not accessible")
		}
	}
	if p.MapBuilds != 1 {
		t.Fatalf("MapBuilds = %d after repeated queries, want 1", p.MapBuilds)
	}
	reg2, _ := EncodeNAPOT(0x8000_1000, 4096)
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadOnly, ANapot), reg2); err != nil {
		t.Fatal(err)
	}
	p.AccessibleUser(0x8000_1000, 4096, mpu.AccessRead)
	if p.MapBuilds != 2 {
		t.Fatalf("MapBuilds = %d after SetEntry, want 2", p.MapBuilds)
	}
	if err := p.ClearEntry(1); err != nil {
		t.Fatal(err)
	}
	if p.AccessibleUser(0x8000_1000, 4096, mpu.AccessRead) {
		t.Fatal("cleared entry still accessible: stale map")
	}
	if p.MapBuilds != 3 {
		t.Fatalf("MapBuilds = %d after ClearEntry, want 3", p.MapBuilds)
	}
	// FlipBits bypasses validation but must still invalidate.
	p.FlipBits(0, CfgW, 0)
	if p.AccessibleUser(0x8000_0000, 4096, mpu.AccessWrite) {
		t.Fatal("entry with W bit flipped off still reported writable")
	}
	if p.MapBuilds != 4 {
		t.Fatalf("MapBuilds = %d after FlipBits, want 4", p.MapBuilds)
	}
}

// FuzzAccessMapEquivalence: for arbitrary CSR states — one entry written
// through the validated path, one corrupted through the raw
// fault-injection path — the interval map must agree with the per-byte
// oracle on both query forms, for every access kind.
func FuzzAccessMapEquivalence(f *testing.F) {
	f.Add(uint8(EncodeCfg(mpu.ReadWriteOnly, ANapot)), uint32(0x8000_0000>>2|7), uint8(0), uint32(0), uint32(0x8000_0000), uint16(64))
	f.Add(uint8(EncodeCfg(mpu.ReadExecuteOnly, ATor)), uint32(0x8000_4000>>2), uint8(CfgAMask), uint32(0xFFFF_FFFF), uint32(0x8000_3FF0), uint16(0x20))
	f.Add(uint8(0), uint32(0), uint8(0), uint32(0), uint32(0xFFFF_FFE0), uint16(0x40))
	f.Fuzz(func(t *testing.T, cfg uint8, addrReg uint32, cfgXor uint8, addrXor uint32, start uint32, length uint16) {
		p := NewPMP(ChipHiFive1)
		_ = p.SetEntry(0, cfg, addrReg) // validated path; rejects are fine
		p.FlipBits(1, cfgXor, addrXor)  // raw path reaches illegal states
		for _, kind := range []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite, mpu.AccessExecute} {
			if got, want := p.AccessibleUser(start, uint32(length), kind), p.AccessibleUserByteScan(start, uint32(length), kind); got != want {
				t.Fatalf("AccessibleUser(0x%08x, %d, %v) = %v, byte scan says %v", start, length, kind, got, want)
			}
			any := false
			end := uint64(start) + uint64(length)
			if end > accessmap.AddressSpace {
				end = accessmap.AddressSpace
			}
			for a := uint64(start); a < end && !any; a++ {
				any = p.Allows(uint32(a), kind, false)
			}
			if got := p.AnyAccessibleUser(start, uint32(length), kind); got != any {
				t.Fatalf("AnyAccessibleUser(0x%08x, %d, %v) = %v, byte scan says %v", start, length, kind, got, any)
			}
		}
	})
}
