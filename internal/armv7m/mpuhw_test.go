package armv7m

import (
	"testing"
	"testing/quick"

	"ticktock/internal/mpu"
)

// mkRASR builds a RASR value from logical fields.
func mkRASR(sizePow2 uint32, srd uint8, perms mpu.Permissions, enable bool) uint32 {
	// sizePow2 is the region size in bytes (power of two).
	var sz uint32
	for 1<<(sz+1) != sizePow2 {
		sz++
		if sz > 31 {
			panic("bad size")
		}
	}
	v := sz<<RASRSizeShift | uint32(srd)<<RASRSRDShift | EncodeAP(perms)
	if enable {
		v |= RASREnable
	}
	return v
}

func TestMPUDisabledAllowsEverything(t *testing.T) {
	h := NewMPUHardware()
	if !h.Allows(0xDEAD_BEEF, mpu.AccessWrite, false) {
		t.Fatal("disabled MPU denied access")
	}
}

func TestMPUEnabledDefaultDeniesUnprivileged(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if h.Allows(0x2000_0000, mpu.AccessRead, false) {
		t.Fatal("unprivileged access with no matching region succeeded")
	}
	// PRIVDEFENA background map admits privileged access.
	if !h.Allows(0x2000_0000, mpu.AccessRead, true) {
		t.Fatal("privileged background access denied")
	}
	h.WriteCtrl(CtrlEnable)
	if h.Allows(0x2000_0000, mpu.AccessRead, true) {
		t.Fatal("privileged access with PRIVDEFENA clear succeeded")
	}
}

func TestMPURegionGrantsConfiguredPermissions(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(0, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		kind mpu.AccessKind
		ok   bool
	}{
		{0x2000_0000, mpu.AccessRead, true},
		{0x2000_03FF, mpu.AccessWrite, true},
		{0x2000_0400, mpu.AccessRead, false},    // one past the region
		{0x1FFF_FFFF, mpu.AccessRead, false},    // one before
		{0x2000_0100, mpu.AccessExecute, false}, // XN set for rw-
	}
	for _, c := range cases {
		if got := h.Allows(c.addr, c.kind, false); got != c.ok {
			t.Errorf("Allows(0x%08x, %v) = %v, want %v", c.addr, c.kind, got, c.ok)
		}
	}
}

func TestMPUReadExecuteRegion(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(2, 0x0000_0000, mkRASR(4096, 0, mpu.ReadExecuteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if !h.Allows(0x100, mpu.AccessExecute, false) {
		t.Fatal("execute denied")
	}
	if h.Allows(0x100, mpu.AccessWrite, false) {
		t.Fatal("write to r-x region succeeded")
	}
}

func TestMPUSubregionDisable(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	// 2048-byte region, 256-byte subregions. Disable subregions 6 and 7
	// (the top quarter) — the paper's grant-region carve-out pattern.
	srd := uint8(1<<6 | 1<<7)
	if err := h.WriteRegion(0, 0x2000_0000, mkRASR(2048, srd, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if !h.Allows(0x2000_0000+5*256, mpu.AccessWrite, false) {
		t.Fatal("enabled subregion denied")
	}
	if h.Allows(0x2000_0000+6*256, mpu.AccessWrite, false) {
		t.Fatal("disabled subregion 6 allowed")
	}
	if h.Allows(0x2000_0000+7*256+255, mpu.AccessRead, false) {
		t.Fatal("disabled subregion 7 allowed")
	}
}

func TestMPUSubregionsIgnoredBelow256(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	// 128-byte region: SRD has no effect per the architecture.
	if err := h.WriteRegion(0, 0x2000_0000, mkRASR(128, 0xFF, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if !h.Allows(0x2000_0040, mpu.AccessRead, false) {
		t.Fatal("access denied despite SRD being architecturally ignored")
	}
}

func TestMPUHigherRegionNumberWins(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	// Region 0 allows RW over 4K; region 7 overlays a no-user-access
	// window on the top 1K. Higher number takes priority.
	if err := h.WriteRegion(0, 0x2000_0000, mkRASR(4096, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteRegion(7, 0x2000_0C00, mkRASR(1024, 0, mpu.NoAccess, true)); err != nil {
		t.Fatal(err)
	}
	if !h.Allows(0x2000_0800, mpu.AccessWrite, false) {
		t.Fatal("region 0 access denied")
	}
	if h.Allows(0x2000_0C00, mpu.AccessWrite, false) {
		t.Fatal("overlay region did not take priority")
	}
	// The kernel (privileged) retains access through the overlay.
	if !h.Allows(0x2000_0C00, mpu.AccessWrite, true) {
		t.Fatal("privileged access through overlay denied")
	}
}

func TestMPUWriteRegionValidatesAlignment(t *testing.T) {
	h := NewMPUHardware()
	// 1024-byte region at a 512-aligned (but not 1024-aligned) base.
	if err := h.WriteRegion(0, 0x2000_0200, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err == nil {
		t.Fatal("misaligned region accepted")
	}
	// Size field below 32 bytes.
	if err := h.WriteRegion(0, 0x2000_0000, 3<<RASRSizeShift|RASREnable); err == nil {
		t.Fatal("undersized region accepted")
	}
	// Disabled regions skip validation (hardware ignores their fields).
	if err := h.WriteRegion(0, 0x2000_0200, mkRASR(1024, 0, mpu.ReadWriteOnly, false)); err != nil {
		t.Fatalf("disabled region rejected: %v", err)
	}
}

func TestMPUVALIDBitSelectsRegion(t *testing.T) {
	h := NewMPUHardware()
	rbar := uint32(0x2000_0000) | RBARValid | 5
	if err := h.WriteRegion(0, rbar, mkRASR(1024, 0, mpu.ReadOnly, true)); err != nil {
		t.Fatal(err)
	}
	_, rasr := h.Region(5)
	if rasr&RASREnable == 0 {
		t.Fatal("VALID-addressed write did not land in region 5")
	}
	_, rasr0 := h.Region(0)
	if rasr0&RASREnable != 0 {
		t.Fatal("region 0 unexpectedly enabled")
	}
}

func TestMPUWriteLogRecordsOrder(t *testing.T) {
	h := NewMPUHardware()
	for _, n := range []int{3, 1, 2} {
		if err := h.ClearRegion(n); err != nil {
			t.Fatal(err)
		}
	}
	got := h.RegionWriteLog
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write log = %v, want %v", got, want)
		}
	}
	h.ResetWriteLog()
	if len(h.RegionWriteLog) != 0 {
		t.Fatal("ResetWriteLog did not clear")
	}
}

// A kernel disables the MPU on every trap, so the write log keeps one
// context switch's writes at most.
func TestMPUWriteLogClearedWhenDisabled(t *testing.T) {
	h := NewMPUHardware()
	for quantum := 0; quantum < 3; quantum++ {
		for n := 0; n < NumRegions; n++ {
			if err := h.ClearRegion(n); err != nil {
				t.Fatal(err)
			}
		}
		h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
		if len(h.RegionWriteLog) != NumRegions {
			t.Fatalf("quantum %d: write log %v after enabling, want %d entries", quantum, h.RegionWriteLog, NumRegions)
		}
		h.WriteCtrl(CtrlPrivDefEna)
		if len(h.RegionWriteLog) != 0 {
			t.Fatalf("quantum %d: write log %v after disabling, want empty", quantum, h.RegionWriteLog)
		}
	}
}

func TestMPUSnapshotRestore(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	if err := h.WriteRegion(1, 0x2000_0000, mkRASR(1024, 0, mpu.ReadWriteOnly, true)); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if err := h.ClearRegion(1); err != nil {
		t.Fatal(err)
	}
	h.WriteCtrl(CtrlPrivDefEna)
	h.Restore(snap)
	if h.Snapshot().Ctrl&CtrlEnable == 0 {
		t.Fatal("MPU_CTRL.ENABLE not restored")
	}
	if !h.Allows(0x2000_0000, mpu.AccessWrite, false) {
		t.Fatal("restored region not effective")
	}
}

// Property: for any enabled region, every address the hardware admits for
// an unprivileged access lies inside [base, base+size), and inside an
// enabled subregion when the region is subregioned. This is the
// hardware-level half of the paper's cannot_access_other invariant.
func TestMPUAdmittedAddressesWithinRegionProperty(t *testing.T) {
	f := func(baseSel uint8, sizeSel uint8, srd uint8, probe uint16) bool {
		h := NewMPUHardware()
		h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
		sizes := []uint32{256, 512, 1024, 2048, 4096}
		size := sizes[int(sizeSel)%len(sizes)]
		base := (uint32(baseSel) * size) % 0x0001_0000
		base = base / size * size // align
		if err := h.WriteRegion(0, base, mkRASR(size, srd, mpu.ReadWriteOnly, true)); err != nil {
			return false
		}
		addr := uint32(probe)
		if h.Allows(addr, mpu.AccessRead, false) {
			if addr < base || addr >= base+size {
				return false // admitted an address outside the region
			}
			sub := (addr - base) / (size / SubregionsPerRegion)
			if srd&(1<<sub) != 0 {
				return false // admitted a disabled subregion
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
