package armv8m

import (
	"testing"

	"ticktock/internal/mpu"
)

// The driver-level and allocator-level tests live in internal/core; this
// file covers the raw hardware semantics.

func TestCheckBaseLimitSemantics(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	rbar := uint32(0x2000_0100) | EncodeRBAR(mpu.ReadWriteOnly)
	rlar := uint32(0x2000_01E0) | RLAREnable // limit block: last byte 0x200001FF
	if err := h.WriteRegion(0, rbar, rlar); err != nil {
		t.Fatal(err)
	}
	if !h.Allows(0x2000_0100, mpu.AccessWrite, false) {
		t.Fatal("base denied")
	}
	if !h.Allows(0x2000_01FF, mpu.AccessWrite, false) {
		t.Fatal("inclusive limit denied")
	}
	if h.Allows(0x2000_0200, mpu.AccessRead, false) {
		t.Fatal("past limit allowed")
	}
	if h.Allows(0x2000_00FF, mpu.AccessRead, false) {
		t.Fatal("before base allowed")
	}
	// XN on rw- regions.
	if h.Allows(0x2000_0100, mpu.AccessExecute, false) {
		t.Fatal("execute allowed on rw- region")
	}
}

func TestWriteRegionRejectsInvertedRange(t *testing.T) {
	h := NewMPUHardware()
	if err := h.WriteRegion(0, 0x2000_0200, 0x2000_0100|RLAREnable); err == nil {
		t.Fatal("limit below base accepted")
	}
	if err := h.WriteRegion(8, 0, 0); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

func TestPrivilegedDefaultMap(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if !h.Allows(0x1234, mpu.AccessWrite, true) {
		t.Fatal("PRIVDEFENA denied kernel")
	}
	if h.Allows(0x1234, mpu.AccessWrite, false) {
		t.Fatal("default map admitted user")
	}
	h.WriteCtrl(CtrlEnable)
	if h.Allows(0x1234, mpu.AccessWrite, true) {
		t.Fatal("kernel admitted with PRIVDEFENA clear")
	}
}

func TestClearRegionAndReadback(t *testing.T) {
	h := NewMPUHardware()
	rbar := uint32(0x2000_0000) | EncodeRBAR(mpu.ReadOnly)
	rlar := uint32(0x2000_0000) | RLAREnable
	if err := h.WriteRegion(3, rbar, rlar); err != nil {
		t.Fatal(err)
	}
	gb, gl := h.Region(3)
	if gb != rbar || gl != rlar {
		t.Fatal("readback mismatch")
	}
	if err := h.ClearRegion(3); err != nil {
		t.Fatal(err)
	}
	if _, gl := h.Region(3); gl&RLAREnable != 0 {
		t.Fatal("region not cleared")
	}
}
