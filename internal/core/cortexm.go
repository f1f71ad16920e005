package core

import (
	"math/bits"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/verify"
)

// CortexMRegion is the ARMv7-M region descriptor: exactly the pair of raw
// hardware register values (paper §4.4). Every RegionDescriptor answer is
// decoded from these bits — the Go analogue of Flux's associated
// refinements being defined over the register contents — so the logical
// view offered to the kernel is definitionally the hardware view.
type CortexMRegion struct {
	rbar uint32
	rasr uint32
}

// unsetCortexMRegion returns a disabled descriptor that still names its
// hardware region (the RBAR VALID+REGION fields are kept so ConfigureMPU
// clears the right slot).
func unsetCortexMRegion(id int) CortexMRegion {
	return CortexMRegion{rbar: uint32(id)&armv7m.RBARRegionMask | armv7m.RBARValid}
}

// RegionID decodes the hardware region number from RBAR.
func (r CortexMRegion) RegionID() int { return int(r.rbar & armv7m.RBARRegionMask) }

// IsSet decodes RASR.ENABLE.
func (r CortexMRegion) IsSet() bool { return r.rasr&armv7m.RASREnable != 0 }

// footprint returns the full hardware region size 2^(SIZE+1), including
// disabled subregions; 0 when unset.
func (r CortexMRegion) footprint() uint32 {
	if !r.IsSet() {
		return 0
	}
	sz := r.rasr & armv7m.RASRSizeMask >> armv7m.RASRSizeShift
	return 1 << (sz + 1)
}

// enabledPrefix returns how many subregions are enabled counting from
// subregion 0 before the first disabled one. TickTock only ever enables a
// prefix, and the correspondence proof relies on that shape.
func (r CortexMRegion) enabledPrefix() uint32 {
	srd := r.rasr & armv7m.RASRSRDMask >> armv7m.RASRSRDShift
	return uint32(bits.TrailingZeros8(uint8(srd) | 0)) // trailing zeros of SRD = enabled prefix
}

// Start decodes the accessible base address.
func (r CortexMRegion) Start() (uint32, bool) {
	if !r.IsSet() {
		return 0, false
	}
	return r.rbar & armv7m.RBARAddrMask, true
}

// Size decodes the accessible size: the enabled-subregion prefix for
// subregioned regions, or the whole footprint for regions below 256 bytes
// (where the hardware ignores SRD).
func (r CortexMRegion) Size() (uint32, bool) {
	if !r.IsSet() {
		return 0, false
	}
	fp := r.footprint()
	if fp < armv7m.MinSubregionedSize {
		return fp, true
	}
	n := r.enabledPrefix()
	if n > armv7m.SubregionsPerRegion {
		n = armv7m.SubregionsPerRegion
	}
	return n * (fp / armv7m.SubregionsPerRegion), true
}

// Overlaps reports whether any user-accessible byte falls in [start, end).
func (r CortexMRegion) Overlaps(start, end uint32) bool {
	s, ok := r.Start()
	if !ok || end <= start {
		return false
	}
	sz, _ := r.Size()
	return s < end && start < s+sz
}

// AllowsPermissions decodes the AP and XN fields and compares with the
// canonical encoding of p.
func (r CortexMRegion) AllowsPermissions(p mpu.Permissions) bool {
	got := r.rasr & (armv7m.RASRAPMask | armv7m.RASRXN)
	return got == armv7m.EncodeAP(p)
}

// RawRegisters exposes the register pair for the hardware write path and
// the driver-verification specs.
func (r CortexMRegion) RawRegisters() (rbar, rasr uint32) { return r.rbar, r.rasr }

// newCortexMRegion builds the register pair for a region of footprint
// bytes at base with the first enabledSubregions subregions enabled.
func newCortexMRegion(id int, base, footprint uint32, enabledSubregions uint32, perms mpu.Permissions) CortexMRegion {
	sizeField := uint32(bits.TrailingZeros32(footprint)) - 1
	srd := uint32(0xFF) &^ ((1 << enabledSubregions) - 1) // disable everything past the prefix
	rasr := sizeField<<armv7m.RASRSizeShift | srd<<armv7m.RASRSRDShift | armv7m.EncodeAP(perms) | armv7m.RASREnable
	rbar := base&armv7m.RBARAddrMask | armv7m.RBARValid | uint32(id)&armv7m.RBARRegionMask
	return CortexMRegion{rbar: rbar, rasr: rasr}
}

// CortexMMPU implements the granular MPU interface for ARMv7-M.
type CortexMMPU struct {
	HW    *armv7m.MPUHardware
	Meter *cycles.Meter
	// ScrambleWriteOrder reproduces the TCB bug the paper's §6.1
	// differential testing caught: region registers written out of
	// region-id order.
	ScrambleWriteOrder bool
}

// NewCortexMMPU returns a driver over the given MPU hardware.
func NewCortexMMPU(hw *armv7m.MPUHardware) *CortexMMPU { return &CortexMMPU{HW: hw} }

// NumRegions implements MPU.
func (c *CortexMMPU) NumRegions() int { return armv7m.NumRegions }

// UnsetRegion implements MPU.
func (c *CortexMMPU) UnsetRegion(id int) CortexMRegion { return unsetCortexMRegion(id) }

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b uint32) uint32 { return (a + b - 1) / b }

// planSubregions picks the number of enabled subregions for a requested
// accessible size within a region pair of the given footprint each.
// Returns (k, ok): k in [1,16] with k*(footprint/8) >= totalSize.
func planSubregions(footprint, totalSize uint32) (uint32, bool) {
	sub := footprint / armv7m.SubregionsPerRegion
	k := ceilDiv(totalSize, sub)
	if k == 0 {
		k = 1
	}
	if k > 2*armv7m.SubregionsPerRegion {
		return 0, false
	}
	return k, true
}

// NewRegions implements MPU for ARMv7-M: it selects a power-of-two region
// footprint no smaller than 256 bytes (so subregions are architecturally
// effective), aligns the base up to the footprint, and enables the exact
// subregion prefix covering at least totalSize bytes across up to two
// contiguous regions. Only the *enabled* span must fit inside the
// unallocated pool: disabled-subregion overhang past the pool grants no
// access and is therefore harmless — this is what lets TickTock allocate
// non-power-of-two memory blocks (paper §6.2).
func (c *CortexMMPU) NewRegions(maxRegionID int, unallocStart, unallocSize, initialSize, capacitySize uint32, perms mpu.Permissions) (CortexMRegion, CortexMRegion, bool) {
	c.Meter.Add(cycles.Call + 4*cycles.ALU)
	unset := unsetCortexMRegion(maxRegionID)
	capacitySize = max(capacitySize, initialSize)
	if initialSize == 0 || uint64(capacitySize) > 1<<31 {
		return unset, unset, false
	}
	// Smallest footprint R such that 16 subregions (2R) can cover the
	// eventual capacity: R >= closest_pow2(capacity)/2, floor 256.
	fp := verify.ClosestPowerOfTwo(capacitySize) / 2
	if fp < armv7m.MinSubregionedSize {
		fp = armv7m.MinSubregionedSize
	}
	for attempt := 0; attempt < 4; attempt++ {
		c.Meter.Add(6 * cycles.ALU)
		start := verify.AlignUp(unallocStart, fp)
		k, ok := planSubregions(fp, initialSize)
		if ok {
			accessible := k * (fp / armv7m.SubregionsPerRegion)
			end := uint64(start) + uint64(accessible)
			if end <= uint64(unallocStart)+uint64(unallocSize) {
				r0Count := min(k, armv7m.SubregionsPerRegion)
				r0 := newCortexMRegion(maxRegionID-1, start, fp, r0Count, perms)
				r1 := unsetCortexMRegion(maxRegionID)
				if k > armv7m.SubregionsPerRegion {
					r1 = newCortexMRegion(maxRegionID, start+fp, fp, k-armv7m.SubregionsPerRegion, perms)
				}
				return r0, r1, true
			}
		}
		fp *= 2
		if fp == 0 {
			break
		}
	}
	return unset, unset, false
}

// UpdateRegions implements MPU: it re-plans the enabled subregion prefix
// for the existing footprint, keeping the base fixed. Pure bit arithmetic,
// no loops — the property the paper credits for TickTock's faster brk.
func (c *CortexMMPU) UpdateRegions(r0, r1 CortexMRegion, regionStart, availableSize, totalSize uint32, perms mpu.Permissions) (CortexMRegion, CortexMRegion, bool) {
	c.Meter.Add(cycles.Call + 8*cycles.ALU)
	unset := unsetCortexMRegion(r1.RegionID())
	fp := r0.footprint()
	if fp == 0 {
		return r0, r1, false
	}
	if s, _ := r0.Start(); s != regionStart {
		return r0, r1, false
	}
	k, ok := planSubregions(fp, totalSize)
	if !ok {
		return r0, r1, false
	}
	accessible := k * (fp / armv7m.SubregionsPerRegion)
	if accessible > availableSize {
		return r0, r1, false
	}
	nr0 := newCortexMRegion(r0.RegionID(), regionStart, fp, min(k, armv7m.SubregionsPerRegion), perms)
	nr1 := unset
	if k > armv7m.SubregionsPerRegion {
		nr1 = newCortexMRegion(r1.RegionID(), regionStart+fp, fp, k-armv7m.SubregionsPerRegion, perms)
	}
	return nr0, nr1, true
}

// NewExactRegion implements MPU: covers [start, start+size) exactly, using
// a bare power-of-two region when size is a power of two, or an enabled
// subregion prefix of a larger region otherwise.
func (c *CortexMMPU) NewExactRegion(regionID int, start, size uint32, perms mpu.Permissions) (CortexMRegion, bool) {
	c.Meter.Add(cycles.Call + 4*cycles.ALU)
	bad := unsetCortexMRegion(regionID)
	if size < armv7m.MinRegionSize || uint64(size) > 1<<31 {
		return bad, false
	}
	if verify.IsPow2(size) && start%size == 0 {
		return newCortexMRegion(regionID, start, size, armv7m.SubregionsPerRegion, perms), true
	}
	// Subregion prefix of a bigger region: need fp pow2 >= 256 with
	// size = k*(fp/8), k in [1,8], start aligned to fp.
	for fp := uint32(armv7m.MinSubregionedSize); fp <= 1<<31 && fp != 0; fp <<= 1 {
		sub := fp / armv7m.SubregionsPerRegion
		if size%sub != 0 {
			continue
		}
		k := size / sub
		if k > armv7m.SubregionsPerRegion {
			continue
		}
		if start%fp != 0 {
			return bad, false // larger footprints need even stricter alignment
		}
		return newCortexMRegion(regionID, start, fp, k, perms), true
	}
	return bad, false
}

// ConfigureMPU implements MPU: it writes all region register pairs in
// ascending region-id order and enables enforcement. Region-id order is
// part of the TCB contract §6.1's differential testing validated; the
// ScrambleWriteOrder flag reintroduces the caught bug for those tests.
func (c *CortexMMPU) ConfigureMPU(regions []CortexMRegion) error {
	for i := range regions {
		if c.ScrambleWriteOrder {
			i = len(regions) - 1 - i
		}
		r := regions[i]
		c.Meter.Add(2 * cycles.MMIO)
		if err := c.HW.WriteRegion(r.RegionID(), r.rbar, r.rasr); err != nil {
			return err
		}
	}
	c.HW.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
	// TickTock issues an extra DSB+ISB pair after enabling the MPU so
	// the verified region-write ordering is architecturally committed
	// before the exception return — the ~7-cycle setup_mpu regression
	// Figure 11 reports.
	c.Meter.Add(cycles.MMIO + 2*cycles.Barrier)
	return nil
}

// DisableMPU implements MPU.
func (c *CortexMMPU) DisableMPU() {
	c.HW.WriteCtrl(armv7m.CtrlPrivDefEna)
	c.Meter.Add(cycles.MMIO)
}

var _ MPU[CortexMRegion] = (*CortexMMPU)(nil)
var _ RegionDescriptor = CortexMRegion{}
