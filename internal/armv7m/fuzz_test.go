package armv7m

import (
	"testing"

	"ticktock/internal/mpu"
)

// FuzzMPUCheck: for arbitrary register contents forced into the MPU, the
// access check must never panic and must never admit an unprivileged
// access to an address outside every enabled region.
func FuzzMPUCheck(f *testing.F) {
	f.Add(uint32(0x2000_0000), uint32(0x2001|RASREnable), uint32(0x2000_0010))
	f.Add(uint32(0), uint32(0), uint32(0xFFFF_FFFF))
	f.Fuzz(func(t *testing.T, rbar, rasr, addr uint32) {
		h := NewMPUHardware()
		h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
		// Force the raw registers in, bypassing WriteRegion validation,
		// to model arbitrary (even illegal) register states.
		h.rbar[0] = rbar & (RBARAddrMask | RBARValid | RBARRegionMask)
		h.rasr[0] = rasr
		if h.Allows(addr, mpu.AccessRead, false) {
			// Admitted: the address must fall inside region 0's span.
			size := h.regionSize(0)
			if size == 0 {
				t.Fatalf("admitted with no enabled region: rasr=0x%08x", rasr)
			}
			base := uint64(h.rbar[0] & RBARAddrMask)
			if uint64(addr) < base || uint64(addr) >= base+size {
				t.Fatalf("admitted 0x%08x outside region [0x%x,+0x%x)", addr, base, size)
			}
		}
	})
}
