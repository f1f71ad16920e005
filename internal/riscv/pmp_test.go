package riscv

import (
	"testing"
	"testing/quick"

	"ticktock/internal/mpu"
)

func TestEncodeNAPOTRoundTrip(t *testing.T) {
	cases := []struct {
		base, size uint32
	}{
		{0x8000_0000, 8},
		{0x8000_0000, 4096},
		{0x2000_1000, 4096},
		{0x0, 32},
	}
	for _, c := range cases {
		reg, err := EncodeNAPOT(c.base, c.size)
		if err != nil {
			t.Fatalf("EncodeNAPOT(0x%x, %d): %v", c.base, c.size, err)
		}
		base, size := napotRange(reg)
		if base != uint64(c.base) || size != uint64(c.size) {
			t.Fatalf("roundtrip (0x%x,%d) -> (0x%x,%d)", c.base, c.size, base, size)
		}
	}
}

func TestEncodeNAPOTRejectsBadInputs(t *testing.T) {
	if _, err := EncodeNAPOT(0x1000, 4); err == nil {
		t.Fatal("size 4 accepted (minimum NAPOT is 8)")
	}
	if _, err := EncodeNAPOT(0x1000, 24); err == nil {
		t.Fatal("non-power-of-two size accepted")
	}
	if _, err := EncodeNAPOT(0x1004, 4096); err == nil {
		t.Fatal("misaligned base accepted")
	}
}

func TestPMPNAPOTCheck(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	reg, err := EncodeNAPOT(0x8000_1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
	if !p.Allows(0x8000_1000, mpu.AccessWrite, false) {
		t.Fatal("in-region write denied")
	}
	if !p.Allows(0x8000_1FFF, mpu.AccessRead, false) {
		t.Fatal("last byte denied")
	}
	if p.Allows(0x8000_2000, mpu.AccessRead, false) {
		t.Fatal("past-end read allowed")
	}
	if p.Allows(0x8000_1000, mpu.AccessExecute, false) {
		t.Fatal("execute allowed on rw- entry")
	}
}

func TestPMPTORCheck(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	// Entry 0 sets the lower bound (OFF, addr only); entry 1 is TOR.
	if err := p.SetEntry(0, 0, 0x8000_0000>>2); err != nil {
		t.Fatal(err)
	}
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadExecuteOnly, ATor), 0x8000_4000>>2); err != nil {
		t.Fatal(err)
	}
	if !p.Allows(0x8000_0000, mpu.AccessExecute, false) {
		t.Fatal("TOR low bound denied")
	}
	if !p.Allows(0x8000_3FFF, mpu.AccessRead, false) {
		t.Fatal("TOR interior denied")
	}
	if p.Allows(0x8000_4000, mpu.AccessRead, false) {
		t.Fatal("TOR top (exclusive) allowed")
	}
	if p.Allows(0x7FFF_FFFF, mpu.AccessRead, false) {
		t.Fatal("below TOR range allowed")
	}
}

func TestPMPTORUnsupportedOnESP32C3(t *testing.T) {
	p := NewPMP(ChipESP32C3)
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadOnly, ATor), 0x1000); err == nil {
		t.Fatal("TOR accepted on chip without TOR support")
	}
	// NAPOT still works.
	reg, _ := EncodeNAPOT(0x8000_0000, 64)
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
}

func TestPMPLowestEntryWins(t *testing.T) {
	p := NewPMP(ChipLiteX)
	// Entry 0: deny-all over a small window (no R/W/X bits).
	reg0, _ := EncodeNAPOT(0x8000_0000, 64)
	if err := p.SetEntry(0, ANapot<<CfgAShift, reg0); err != nil {
		t.Fatal(err)
	}
	// Entry 1: rw over a larger window containing entry 0's.
	reg1, _ := EncodeNAPOT(0x8000_0000, 4096)
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadWriteOnly, ANapot), reg1); err != nil {
		t.Fatal(err)
	}
	// Lowest-numbered match wins: the deny window masks the rw window.
	if p.Allows(0x8000_0010, mpu.AccessRead, false) {
		t.Fatal("entry 0 deny did not take priority")
	}
	if !p.Allows(0x8000_0100, mpu.AccessRead, false) {
		t.Fatal("entry 1 allow did not apply outside entry 0")
	}
}

func TestPMPMachineModeDefaults(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	// No matching entry: M-mode succeeds, U-mode fails.
	if !p.Allows(0x8000_0000, mpu.AccessWrite, true) {
		t.Fatal("M-mode default deny")
	}
	if p.Allows(0x8000_0000, mpu.AccessWrite, false) {
		t.Fatal("U-mode default allow")
	}
	// An unlocked entry does not constrain M-mode.
	reg, _ := EncodeNAPOT(0x8000_0000, 64)
	if err := p.SetEntry(0, ANapot<<CfgAShift, reg); err != nil {
		t.Fatal(err)
	}
	if !p.Allows(0x8000_0000, mpu.AccessWrite, true) {
		t.Fatal("unlocked entry constrained M-mode")
	}
	// A locked deny entry does constrain M-mode.
	if err := p.SetEntry(1, CfgL|ANapot<<CfgAShift, reg); err != nil {
		t.Fatal(err)
	}
	// entry 0 (unlocked) matches first and M-mode passes; re-order:
	p2 := NewPMP(ChipHiFive1)
	if err := p2.SetEntry(0, CfgL|ANapot<<CfgAShift, reg); err != nil {
		t.Fatal(err)
	}
	if p2.Allows(0x8000_0000, mpu.AccessWrite, true) {
		t.Fatal("locked deny entry did not constrain M-mode")
	}
}

func TestPMPLockedEntryRejectsWrites(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	reg, _ := EncodeNAPOT(0x8000_0000, 64)
	if err := p.SetEntry(0, CfgL|EncodeCfg(mpu.ReadOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
	if err := p.SetEntry(0, 0, 0); err == nil {
		t.Fatal("write to locked entry accepted")
	}
}

func TestPMPReservedWWithoutR(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	if err := p.SetEntry(0, CfgW|ANapot<<CfgAShift, 0xFF); err == nil {
		t.Fatal("reserved W-without-R encoding accepted")
	}
}

func TestPMPEntryRangeChecked(t *testing.T) {
	p := NewPMP(ChipHiFive1) // 8 entries
	if err := p.SetEntry(8, 0, 0); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if err := p.SetEntry(-1, 0, 0); err == nil {
		t.Fatal("negative entry accepted")
	}
}

// Property: a NAPOT entry admits exactly the addresses in [base,
// base+size) — never anything outside. Mirrors the ARM property test; this
// is the PMP half of cannot_access_other.
func TestPMPNAPOTExactFootprintProperty(t *testing.T) {
	f := func(baseSel uint8, sizeSel uint8, probe uint32) bool {
		sizes := []uint32{8, 64, 256, 4096, 1 << 16}
		size := sizes[int(sizeSel)%len(sizes)]
		base := (uint32(baseSel) % 64) * size
		reg, err := EncodeNAPOT(base, size)
		if err != nil {
			return false
		}
		p := NewPMP(ChipLiteX)
		if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANapot), reg); err != nil {
			return false
		}
		in := probe >= base && probe < base+size
		allowed := p.Allows(probe, mpu.AccessRead, false)
		return in == allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPMPNA4Mode(t *testing.T) {
	p := NewPMP(ChipHiFive1)
	// NA4 protects exactly four bytes at the encoded address.
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANa4), 0x8000_0100>>2); err != nil {
		t.Fatal(err)
	}
	for off := uint32(0); off < 4; off++ {
		if !p.Allows(0x8000_0100+off, mpu.AccessWrite, false) {
			t.Fatalf("NA4 byte %d denied", off)
		}
	}
	if p.Allows(0x8000_0104, mpu.AccessWrite, false) {
		t.Fatal("NA4 allowed past its 4 bytes")
	}
	if p.Allows(0x8000_00FF, mpu.AccessWrite, false) {
		t.Fatal("NA4 allowed before its 4 bytes")
	}
}

// TestNAPOTAllOnesFullSpan: an all-ones pmpaddr encodes the largest NAPOT
// region — 32 trailing ones, so base 0 and size 2^35, covering the entire
// 32-bit address space. The decode must terminate and the entry must
// match every address.
func TestNAPOTAllOnesFullSpan(t *testing.T) {
	base, size := DecodeNAPOT(0xFFFF_FFFF)
	if base != 0 || size != 1<<35 {
		t.Fatalf("DecodeNAPOT(0xFFFFFFFF) = (0x%x, 0x%x), want (0, 2^35)", base, size)
	}
	p := NewPMP(ChipHiFive1)
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadWriteOnly, ANapot), 0xFFFF_FFFF); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint32{0, 0x8000_0000, 0xFFFF_FFFF} {
		if !p.Allows(addr, mpu.AccessRead, false) {
			t.Fatalf("all-ones NAPOT entry missed 0x%08x", addr)
		}
	}
	if !p.AccessibleUser(0, 0xFFFF_FFFF, mpu.AccessRead) ||
		!p.AccessibleUser(0xFFFF_FFFF, 1, mpu.AccessRead) {
		t.Fatal("full-address-space entry denied a range query")
	}
}

// TestEncodeNAPOTRoundTripExtremes covers the encoding extremes: the
// 8-byte architectural minimum and the 2^31 half-address-space maximum.
func TestEncodeNAPOTRoundTripExtremes(t *testing.T) {
	for _, c := range []struct {
		base, size uint32
	}{
		{0x2000_0000, 8},
		{0, 8},
		{0x8000_0000, 1 << 31},
		{0, 1 << 31},
	} {
		reg, err := EncodeNAPOT(c.base, c.size)
		if err != nil {
			t.Fatalf("EncodeNAPOT(0x%x, 0x%x): %v", c.base, c.size, err)
		}
		base, size := DecodeNAPOT(reg)
		if base != uint64(c.base) || size != uint64(c.size) {
			t.Fatalf("roundtrip (0x%x,0x%x) -> (0x%x,0x%x)", c.base, c.size, base, size)
		}
	}
}

// TestPMPGranularityEnforced: SetEntry rejects configurations finer than
// the chip's protection granularity — NAPOT regions below twice the
// grain, NA4 on coarse-grained chips, and TOR/OFF bounds off the grain
// (spec §3.7.1).
func TestPMPGranularityEnforced(t *testing.T) {
	// All stock chips have the 4-byte grain: the finest encodings stay
	// legal on every one.
	for _, chip := range Chips {
		p := NewPMP(chip)
		reg, _ := EncodeNAPOT(0x8000_0000, 8)
		if err := p.SetEntry(0, EncodeCfg(mpu.ReadOnly, ANapot), reg); err != nil {
			t.Fatalf("chip %s rejected minimum NAPOT: %v", chip.Name, err)
		}
		if err := p.SetEntry(1, EncodeCfg(mpu.ReadOnly, ANa4), 0x8000_0100>>2); err != nil {
			t.Fatalf("chip %s rejected NA4: %v", chip.Name, err)
		}
	}

	coarse := ChipConfig{Name: "coarse-grain", Entries: 4, Granularity: 16, TORSupported: true}
	p := NewPMP(coarse)
	// NAPOT below twice the grain (needs >= 32 bytes here).
	reg, _ := EncodeNAPOT(0x8000_0000, 16)
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadOnly, ANapot), reg); err == nil {
		t.Fatal("16-byte NAPOT accepted on a 16-byte-grain chip (needs 2G = 32)")
	}
	reg, _ = EncodeNAPOT(0x8000_0000, 32)
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadOnly, ANapot), reg); err != nil {
		t.Fatalf("2G NAPOT rejected: %v", err)
	}
	// NA4 cannot exist when the grain exceeds 4 bytes.
	if err := p.SetEntry(1, EncodeCfg(mpu.ReadOnly, ANa4), 0x8000_0100>>2); err == nil {
		t.Fatal("NA4 accepted on a 16-byte-grain chip")
	}
	// TOR and OFF bounds must sit on the grain.
	if err := p.SetEntry(1, 0, 0x8000_0008>>2); err == nil {
		t.Fatal("misaligned OFF bound accepted")
	}
	if err := p.SetEntry(1, 0, 0x8000_0010>>2); err != nil {
		t.Fatalf("aligned OFF bound rejected: %v", err)
	}
	if err := p.SetEntry(2, EncodeCfg(mpu.ReadOnly, ATor), 0x8000_0028>>2); err == nil {
		t.Fatal("misaligned TOR bound accepted")
	}
	if err := p.SetEntry(2, EncodeCfg(mpu.ReadOnly, ATor), 0x8000_0030>>2); err != nil {
		t.Fatalf("aligned TOR bound rejected: %v", err)
	}
}

func TestPMPAccessibleUserHelper(t *testing.T) {
	p := NewPMP(ChipLiteX)
	reg, _ := EncodeNAPOT(0x8000_0000, 256)
	if err := p.SetEntry(0, EncodeCfg(mpu.ReadOnly, ANapot), reg); err != nil {
		t.Fatal(err)
	}
	if !p.AccessibleUser(0x8000_0000, 256, mpu.AccessRead) {
		t.Fatal("full span denied")
	}
	if p.AccessibleUser(0x8000_0000, 257, mpu.AccessRead) {
		t.Fatal("span past region allowed")
	}
	if p.AccessibleUser(0x8000_0000, 16, mpu.AccessWrite) {
		t.Fatal("write allowed on read-only entry")
	}
}
