package core

import (
	"ticktock/internal/armv8m"
	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/verify"
)

// V8MRegion is the ARMv8-M region descriptor: the raw RBAR/RLAR register
// pair. v8-M regions are simple base/limit ranges with 32-byte
// granularity and no subregions, so the descriptor decode is trivial —
// which is rather the point: the same kernel allocator runs over this
// driver, the v7-M subregion machinery, and the RISC-V PMP without
// noticing the difference.
type V8MRegion struct {
	id   int
	rbar uint32
	rlar uint32
}

// RegionID implements RegionDescriptor.
func (r V8MRegion) RegionID() int { return r.id }

// IsSet implements RegionDescriptor.
func (r V8MRegion) IsSet() bool { return r.rlar&armv8m.RLAREnable != 0 }

// Start implements RegionDescriptor.
func (r V8MRegion) Start() (uint32, bool) {
	if !r.IsSet() {
		return 0, false
	}
	return r.rbar & armv8m.AddrMask, true
}

// Size implements RegionDescriptor.
func (r V8MRegion) Size() (uint32, bool) {
	if !r.IsSet() {
		return 0, false
	}
	base := r.rbar & armv8m.AddrMask
	limit := r.rlar & armv8m.AddrMask
	return limit - base + armv8m.Granule, true
}

// Overlaps implements RegionDescriptor.
func (r V8MRegion) Overlaps(start, end uint32) bool {
	s, ok := r.Start()
	if !ok || end <= start {
		return false
	}
	sz, _ := r.Size()
	return s < end && start < s+sz
}

// AllowsPermissions implements RegionDescriptor.
func (r V8MRegion) AllowsPermissions(p mpu.Permissions) bool {
	got := r.rbar & (armv8m.RBARAPMask | armv8m.RBARXN)
	return got == armv8m.EncodeRBAR(p)
}

// RawRegisters exposes the register pair.
func (r V8MRegion) RawRegisters() (rbar, rlar uint32) { return r.rbar, r.rlar }

// newV8MRegion builds the register pair for [start, start+size), both
// 32-byte aligned.
func newV8MRegion(id int, start, size uint32, perms mpu.Permissions) V8MRegion {
	return V8MRegion{
		id:   id,
		rbar: start&armv8m.AddrMask | armv8m.EncodeRBAR(perms),
		rlar: (start+size-armv8m.Granule)&armv8m.AddrMask | armv8m.RLAREnable,
	}
}

// V8MMPU implements the granular MPU interface for ARMv8-M.
type V8MMPU struct {
	HW    *armv8m.MPUHardware
	Meter *cycles.Meter
}

// NewV8MMPU returns a driver over the given hardware.
func NewV8MMPU(hw *armv8m.MPUHardware) *V8MMPU { return &V8MMPU{HW: hw} }

// NumRegions implements MPU.
func (c *V8MMPU) NumRegions() int { return armv8m.NumRegions }

// UnsetRegion implements MPU.
func (c *V8MMPU) UnsetRegion(id int) V8MRegion { return V8MRegion{id: id} }

// NewRegions implements MPU: v8-M needs a single region per contiguous
// span (no power-of-two constraint), rounded to the 32-byte granule.
func (c *V8MMPU) NewRegions(maxRegionID int, unallocStart, unallocSize, initialSize, capacitySize uint32, perms mpu.Permissions) (V8MRegion, V8MRegion, bool) {
	c.Meter.Add(cycles.Call + 3*cycles.ALU)
	unset0, unset1 := V8MRegion{id: maxRegionID - 1}, V8MRegion{id: maxRegionID}
	if initialSize == 0 {
		return unset0, unset1, false
	}
	start := verify.AlignUp(unallocStart, armv8m.Granule)
	size := verify.AlignUp(initialSize, armv8m.Granule)
	if uint64(start)+uint64(size) > uint64(unallocStart)+uint64(unallocSize) {
		return unset0, unset1, false
	}
	return newV8MRegion(maxRegionID-1, start, size, perms), unset1, true
}

// UpdateRegions implements MPU: rebuild the single region with a new size
// at the same base.
func (c *V8MMPU) UpdateRegions(r0, r1 V8MRegion, regionStart, availableSize, totalSize uint32, perms mpu.Permissions) (V8MRegion, V8MRegion, bool) {
	c.Meter.Add(cycles.Call + 3*cycles.ALU)
	if !r0.IsSet() {
		return r0, r1, false
	}
	if s, _ := r0.Start(); s != regionStart {
		return r0, r1, false
	}
	size := verify.AlignUp(max(totalSize, armv8m.Granule), armv8m.Granule)
	if size > availableSize {
		return r0, r1, false
	}
	return newV8MRegion(r0.RegionID(), regionStart, size, perms), V8MRegion{id: r1.RegionID()}, true
}

// NewExactRegion implements MPU.
func (c *V8MMPU) NewExactRegion(regionID int, start, size uint32, perms mpu.Permissions) (V8MRegion, bool) {
	c.Meter.Add(cycles.Call + 2*cycles.ALU)
	if size == 0 || start%armv8m.Granule != 0 || size%armv8m.Granule != 0 {
		return V8MRegion{id: regionID}, false
	}
	return newV8MRegion(regionID, start, size, perms), true
}

// ConfigureMPU implements MPU.
func (c *V8MMPU) ConfigureMPU(regions []V8MRegion) error {
	for _, r := range regions {
		c.Meter.Add(2 * cycles.MMIO)
		if !r.IsSet() {
			if err := c.HW.ClearRegion(r.id); err != nil {
				return err
			}
			continue
		}
		if err := c.HW.WriteRegion(r.id, r.rbar, r.rlar); err != nil {
			return err
		}
	}
	c.HW.WriteCtrl(armv8m.CtrlEnable | armv8m.CtrlPrivDefEna)
	c.Meter.Add(cycles.MMIO + cycles.Barrier)
	return nil
}

// DisableMPU implements MPU.
func (c *V8MMPU) DisableMPU() {
	c.HW.WriteCtrl(armv8m.CtrlPrivDefEna)
	c.Meter.Add(cycles.MMIO)
}

var _ MPU[V8MRegion] = (*V8MMPU)(nil)
var _ RegionDescriptor = V8MRegion{}
