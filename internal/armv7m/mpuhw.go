package armv7m

import (
	"fmt"

	"ticktock/internal/accessmap"
	"ticktock/internal/metrics"
	"ticktock/internal/mpu"
)

// The ARMv7-M MPU register layout (ARMv7-M ARM, B3.5). A region is
// configured by a base-address register (RBAR) and an attribute/size
// register (RASR):
//
//	RBAR: [31:5] ADDR  [4] VALID  [3:0] REGION
//	RASR: [31:29] res  [28] XN  [26:24] AP  [15:8] SRD  [5:1] SIZE  [0] ENABLE
//
// Region size is 2^(SIZE+1) bytes, minimum 32 bytes (SIZE >= 4), and the
// base address must be aligned to the region size. Regions of 256 bytes or
// larger are split into eight equal subregions that the SRD bits disable
// individually; a set SRD bit excludes that eighth of the region.
const (
	// NumRegions is the number of MPU regions on Cortex-M4 class parts.
	NumRegions = 8

	// MinRegionSize is the architectural minimum MPU region size.
	MinRegionSize = 32

	// SubregionsPerRegion is the number of independently-disablable
	// subregions in each region.
	SubregionsPerRegion = 8

	// MinSubregionedSize is the smallest region size for which SRD bits
	// take effect.
	MinSubregionedSize = 256
)

// RBAR field masks.
const (
	RBARAddrMask   = 0xFFFF_FFE0
	RBARValid      = 1 << 4
	RBARRegionMask = 0xF
)

// RASR field masks and shifts.
const (
	RASREnable    = 1 << 0
	RASRSizeMask  = 0x3E // bits [5:1]
	RASRSizeShift = 1
	RASRSRDMask   = 0xFF00 // bits [15:8]
	RASRSRDShift  = 8
	RASRAPMask    = 0x0700_0000 // bits [26:24]
	RASRAPShift   = 24
	RASRXN        = 1 << 28
)

// AP (access permission) field encodings, ARMv7-M table B3-15.
const (
	APNoAccess     = 0 // all accesses fault
	APPrivRW       = 1 // privileged RW, unprivileged faults
	APPrivRWUserRO = 2 // privileged RW, unprivileged RO
	APFullRW       = 3 // RW for everyone
	APPrivRO       = 5 // privileged RO, unprivileged faults
	APReadOnly     = 6 // RO for everyone
	APReadOnlyAlt  = 7 // RO for everyone (alternate encoding)
)

// EncodeAP maps logical permissions to the hardware AP/XN bit pattern for a
// user-accessible region. The returned value is a partial RASR with AP and
// XN set.
func EncodeAP(p mpu.Permissions) uint32 {
	var ap uint32
	xn := uint32(RASRXN)
	switch p {
	case mpu.NoAccess:
		ap = APPrivRW // kernel keeps access; user locked out
	case mpu.ReadOnly:
		ap = APReadOnly
	case mpu.ReadWriteOnly:
		ap = APFullRW
	case mpu.ReadExecuteOnly:
		ap = APReadOnly
		xn = 0
	case mpu.ReadWriteExecute:
		ap = APFullRW
		xn = 0
	}
	return ap<<RASRAPShift | xn
}

// apAllows evaluates the AP encoding for an access, per table B3-15.
func apAllows(ap uint32, privileged bool, kind mpu.AccessKind) bool {
	write := kind == mpu.AccessWrite
	switch ap {
	case APNoAccess:
		return false
	case APPrivRW:
		return privileged
	case APPrivRWUserRO:
		if privileged {
			return true
		}
		return !write
	case APFullRW:
		return true
	case APPrivRO:
		return privileged && !write
	case APReadOnly, APReadOnlyAlt:
		return !write
	default:
		return false
	}
}

// MPU_CTRL bits the model keeps (B3.5.3); HFNMIENA is not modelled.
const (
	// CtrlEnable is MPU_CTRL.ENABLE.
	CtrlEnable = 1 << 0
	// CtrlPrivDefEna is MPU_CTRL.PRIVDEFENA: when set, privileged
	// accesses that match no region use the default memory map instead
	// of faulting. Tock runs with this set so the kernel is never
	// blocked by the MPU.
	CtrlPrivDefEna = 1 << 2
)

// MPUHardware models the ARMv7-M memory protection unit: the MPU_CTRL
// register and eight RBAR/RASR register pairs. Register writes take
// effect immediately, exactly as MMIO stores to 0xE000ED90.. would. The
// access map derived from the registers, and the range queries answered
// from it, come from the embedded cache.
type MPUHardware struct {
	accessmap.Cache

	ctrl uint32 // MPU_CTRL: CtrlEnable and CtrlPrivDefEna only
	rbar [NumRegions]uint32
	rasr [NumRegions]uint32

	// RegionWriteLog records the order in which region numbers were
	// written since the last ResetWriteLog or the last MPU_CTRL write
	// that left ENABLE clear, so a kernel that disables the MPU on every
	// trap keeps at most one context switch's writes. The
	// differential-testing campaign in the paper (§6.1) caught a TCB bug
	// where regions were written out of order; the log lets tests assert
	// ordering.
	RegionWriteLog []int

	// Writes counts region-register writes (WriteRegion + ClearRegion)
	// when metrics are attached; nil-safe.
	Writes *metrics.Counter
}

// NewMPUHardware returns a disabled MPU (MPU_CTRL = PRIVDEFENA) with all
// regions cleared.
func NewMPUHardware() *MPUHardware {
	h := &MPUHardware{ctrl: CtrlPrivDefEna, RegionWriteLog: make([]int, 0, NumRegions)}
	h.Cache = accessmap.NewCache(h)
	return h
}

// WriteCtrl writes MPU_CTRL. Bits other than ENABLE and PRIVDEFENA read
// as zero. A write that leaves ENABLE clear also clears RegionWriteLog.
func (h *MPUHardware) WriteCtrl(v uint32) {
	h.ctrl = v & (CtrlEnable | CtrlPrivDefEna)
	if h.ctrl&CtrlEnable == 0 {
		h.ResetWriteLog()
	}
	h.Invalidate()
}

// WriteRegion programs region pair (rbar, rasr). The region number is taken
// from the RBAR REGION field when VALID is set; otherwise number selects
// the region, matching the RNR-relative write mode.
func (h *MPUHardware) WriteRegion(number int, rbar, rasr uint32) error {
	if rbar&RBARValid != 0 {
		number = int(rbar & RBARRegionMask)
	}
	if number < 0 || number >= NumRegions {
		return fmt.Errorf("armv7m: MPU region %d out of range", number)
	}
	if rasr&RASREnable != 0 {
		size := rasr & RASRSizeMask >> RASRSizeShift
		if size < 4 {
			return fmt.Errorf("armv7m: MPU region %d size field %d below architectural minimum", number, size)
		}
		regionSize := uint64(1) << (size + 1)
		base := uint64(rbar & RBARAddrMask)
		if base%regionSize != 0 {
			return fmt.Errorf("armv7m: MPU region %d base 0x%08x not aligned to size %d", number, base, regionSize)
		}
	}
	h.rbar[number] = rbar & (RBARAddrMask | RBARValid | RBARRegionMask)
	h.rasr[number] = rasr
	h.RegionWriteLog = append(h.RegionWriteLog, number)
	h.Writes.Inc()
	h.Invalidate()
	return nil
}

// ClearRegion disables region number.
func (h *MPUHardware) ClearRegion(number int) error {
	if number < 0 || number >= NumRegions {
		return fmt.Errorf("armv7m: MPU region %d out of range", number)
	}
	h.rbar[number] = uint32(number) & RBARRegionMask
	h.rasr[number] = 0
	h.RegionWriteLog = append(h.RegionWriteLog, number)
	h.Writes.Inc()
	h.Invalidate()
	return nil
}

// ResetWriteLog clears the region write ordering log.
func (h *MPUHardware) ResetWriteLog() { h.RegionWriteLog = h.RegionWriteLog[:0] }

// FlipBits XORs raw bit patterns into region number's RBAR/RASR pair,
// bypassing the write-path validation entirely — modelling a single-event
// upset striking the MPU register file rather than a software store. The
// flip is deliberately not recorded in RegionWriteLog and not counted as
// a write: no instruction executed. Out-of-range region numbers no-op,
// as an upset outside the implemented register file has no target.
func (h *MPUHardware) FlipBits(number int, rbarXor, rasrXor uint32) {
	if number < 0 || number >= NumRegions {
		return
	}
	h.rbar[number] ^= rbarXor
	h.rasr[number] ^= rasrXor
	h.Invalidate()
}

// Region returns the raw register pair for region number.
func (h *MPUHardware) Region(number int) (rbar, rasr uint32) {
	return h.rbar[number], h.rasr[number]
}

// regionSize returns the byte size of region i, or 0 if disabled.
func (h *MPUHardware) regionSize(i int) uint64 {
	if h.rasr[i]&RASREnable == 0 {
		return 0
	}
	size := h.rasr[i] & RASRSizeMask >> RASRSizeShift
	return uint64(1) << (size + 1)
}

// regionMatches reports whether addr hits region i, honouring subregion
// disable bits.
func (h *MPUHardware) regionMatches(i int, addr uint32) bool {
	size := h.regionSize(i)
	if size == 0 {
		return false
	}
	base := uint64(h.rbar[i] & RBARAddrMask)
	a := uint64(addr)
	if a < base || a >= base+size {
		return false
	}
	if size >= MinSubregionedSize {
		sub := (a - base) / (size / SubregionsPerRegion)
		srd := h.rasr[i] & RASRSRDMask >> RASRSRDShift
		if srd&(1<<sub) != 0 {
			return false // subregion disabled: treated as no match
		}
	}
	return true
}

// Allows evaluates an access against the MPU configuration. Matching
// follows ARMv7-M semantics: the highest-numbered matching region wins;
// if no region matches, privileged accesses succeed when PRIVDEFENA is
// set and unprivileged accesses fault. A disabled MPU allows everything.
func (h *MPUHardware) Allows(addr uint32, kind mpu.AccessKind, privileged bool) bool {
	if h.ctrl&CtrlEnable == 0 {
		return true
	}
	for i := NumRegions - 1; i >= 0; i-- {
		if !h.regionMatches(i, addr) {
			continue
		}
		rasr := h.rasr[i]
		if kind == mpu.AccessExecute && rasr&RASRXN != 0 {
			return false
		}
		return apAllows(rasr&RASRAPMask>>RASRAPShift, privileged, kind)
	}
	return privileged && h.ctrl&CtrlPrivDefEna != 0
}

// uniformGranules reports whether Allows is constant on every aligned
// MinRegionSize-byte granule. It is whenever every enabled region has
// SIZE >= 4: RBAR holds a base in bits [31:5], such a region spans at
// least 32 bytes, and its subregions span size/8 >= 32 bytes, so every
// boundary Boundaries reports is a multiple of 32. WriteRegion refuses a
// smaller enabled region; only FlipBits can make one.
func (h *MPUHardware) uniformGranules() bool {
	if h.ctrl&CtrlEnable == 0 {
		return true
	}
	for _, rasr := range h.rasr {
		if rasr&RASREnable != 0 && rasr&RASRSizeMask>>RASRSizeShift < 4 {
			return false
		}
	}
	return true
}

// writableWords returns how many of the n words at addr, addr+4, ...
// (wrapping at the top of the address space) Allows admits for writing
// before the first denied one; like Allows, each word is decided by its
// first byte. Exception entry stacks its frame through it. It asks Allows
// once per granule the words touch when uniformGranules holds, and once
// per word otherwise.
func (h *MPUHardware) writableWords(addr uint32, n int, privileged bool) int {
	perGranule := h.uniformGranules()
	var ok bool
	for i := 0; i < n; i++ {
		a := addr + uint32(4*i)
		// Stepping by 4, a word starts a new granule exactly when its
		// offset in the granule is below 4.
		if i == 0 || !perGranule || a%MinRegionSize < 4 {
			ok = h.Allows(a, mpu.AccessWrite, privileged)
		}
		if !ok {
			return i
		}
	}
	return n
}

// Boundaries collects every address at which the MPU decision can change:
// each enabled region's base and end, plus subregion boundaries where the
// SRD bits take effect. Completeness of this set is what Build's
// segment-uniformity argument rests on; the oracle-equivalence specs check
// it differentially against the per-byte scan.
func (h *MPUHardware) Boundaries() []uint64 {
	bs := make([]uint64, 0, 2*NumRegions)
	for i := 0; i < NumRegions; i++ {
		size := h.regionSize(i)
		if size == 0 {
			continue
		}
		base := uint64(h.rbar[i] & RBARAddrMask)
		if size >= MinSubregionedSize {
			sub := size / SubregionsPerRegion
			for j := uint64(0); j <= SubregionsPerRegion; j++ {
				bs = append(bs, base+j*sub)
			}
		} else {
			bs = append(bs, base, base+size)
		}
	}
	return bs
}

// Snapshot captures the full register state, for save/restore in tests.
type Snapshot struct {
	Ctrl uint32
	RBAR [NumRegions]uint32
	RASR [NumRegions]uint32
}

// Snapshot returns a copy of the current register state.
func (h *MPUHardware) Snapshot() Snapshot {
	return Snapshot{Ctrl: h.ctrl, RBAR: h.rbar, RASR: h.rasr}
}

// Restore overwrites the register state with a snapshot.
func (h *MPUHardware) Restore(s Snapshot) {
	h.ctrl, h.rbar, h.rasr = s.Ctrl, s.RBAR, s.RASR
	h.Invalidate()
}

// Fault status plumbing (SCB MMFSR/MMFAR, B3.2). The machine latches the
// faulting address and cause on each MemManage fault so the kernel's
// fault report can print them, as Tock's does.
type FaultStatus struct {
	// Valid reports whether MMFAR holds a valid address.
	Valid bool
	// MMFAR is the MemManage fault address register.
	MMFAR uint32
	// DACCVIOL is set for data access violations, IACCVIOL for
	// instruction access violations.
	DACCVIOL, IACCVIOL bool
}
