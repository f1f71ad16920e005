// Package monolithic is a faithful port of Tock's original monolithic MPU
// abstraction for ARM Cortex-M (paper Figure 3a/4a): a single trait that
// both allocates process memory and programs the MPU, entangling hardware
// constraints with kernel policy.
//
// It exists for three reasons:
//
//  1. It is the baseline the paper benchmarks TickTock against (Figure 11
//     and the §6.2 memory microbenchmark);
//  2. It carries the three published isolation bugs behind BugSet flags so
//     the verification harness can re-discover each one (§2.2, §3.4):
//     the grant-overlap bug (tock#4366), the brk underflow (§2.2), and —
//     in the context-switch path that consumes MissedModeSwitch — the
//     privileged-jump-to-user bug (tock#4246);
//  3. Its checker suite demonstrates the verification-time gap of
//     Figure 12: proving the entangled allocator correct requires
//     exploring a much larger state space than the granular design.
//
// When all bug flags are false the code includes Tock's upstream fixes and
// is correct (the differential tests rely on that).
package monolithic

import (
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/verify"
)

// BugSet toggles the faithful reproductions of the published bugs.
type BugSet struct {
	// GrantOverlap reproduces tock#4366: the overlap-readjustment path
	// doubles region_size but not mem_size_po2, so the last enabled
	// subregion can still cover kernel grant memory.
	GrantOverlap bool
	// BrkUnderflow reproduces the §2.2 integer underflow: brk argument
	// validation is skipped, so num_enabled_subregions arithmetic wraps
	// and the kernel panics (or worse).
	BrkUnderflow bool
	// MissedModeSwitch reproduces tock#4246: the context-switch assembly
	// omits dropping the CPU to unprivileged mode before jumping to the
	// process. Consumed by the kernel's switch path, carried here so one
	// BugSet configures a whole kernel build.
	MissedModeSwitch bool
}

// ParseBug returns the BugSet enabling the one published bug called
// name: grant-overlap, brk-underflow or missed-mode-switch. It is the
// inverse of BugSet.Name.
func ParseBug(name string) (BugSet, bool) {
	var b BugSet
	switch name {
	case "grant-overlap":
		b.GrantOverlap = true
	case "brk-underflow":
		b.BrkUnderflow = true
	case "missed-mode-switch":
		b.MissedModeSwitch = true
	default:
		return b, false
	}
	return b, true
}

// Name names the first enabled published bug, "" when none.
func (b BugSet) Name() string {
	switch {
	case b.GrantOverlap:
		return "grant-overlap"
	case b.BrkUnderflow:
		return "brk-underflow"
	case b.MissedModeSwitch:
		return "missed-mode-switch"
	}
	return ""
}

// MpuConfig is the per-process MPU configuration the monolithic interface
// mutates in place (the `config: &mut MpuConfig` of Figure 3a). Alongside
// the register values it caches the layout parameters the update path
// needs — state that duplicates what the kernel also tracks, which is the
// "disagreement" problem of §3.2.
type MpuConfig struct {
	RBAR [armv7m.NumRegions]uint32
	RASR [armv7m.NumRegions]uint32

	// Cached layout used by UpdateAppMemRegion.
	RegionStart uint32
	RegionSize  uint32 // one MPU region's footprint (the block is 2×)
	AppSize     uint32
}

// setRAMRegions programs the two RAM region register pairs for
// numEnabledSubregs enabled subregions of subregSize bytes each starting
// at regionStart. It mirrors Tock's region-building loop, charging the
// loop's cycle cost.
func (m *MPU) setRAMRegions(cfg *MpuConfig, numEnabledSubregs uint32) {
	srd0, srd1 := uint32(0xFF), uint32(0xFF)
	// Tock builds the SRD masks with a loop over subregion indices.
	for i := uint32(0); i < numEnabledSubregs && i < 16; i++ {
		m.Meter.Add(3 * cycles.ALU)
		if i < 8 {
			srd0 &^= 1 << i
		} else {
			srd1 &^= 1 << (i - 8)
		}
	}
	sizeField := uint32(0)
	for 1<<(sizeField+1) != cfg.RegionSize {
		sizeField++
		m.Meter.Add(cycles.ALU)
	}
	ap := armv7m.EncodeAP(mpu.ReadWriteOnly)
	cfg.RBAR[0] = cfg.RegionStart&armv7m.RBARAddrMask | armv7m.RBARValid | 0
	cfg.RASR[0] = sizeField<<armv7m.RASRSizeShift | srd0<<armv7m.RASRSRDShift | ap | armv7m.RASREnable
	if numEnabledSubregs > 8 {
		cfg.RBAR[1] = (cfg.RegionStart+cfg.RegionSize)&armv7m.RBARAddrMask | armv7m.RBARValid | 1
		cfg.RASR[1] = sizeField<<armv7m.RASRSizeShift | srd1<<armv7m.RASRSRDShift | ap | armv7m.RASREnable
	} else {
		cfg.RBAR[1] = armv7m.RBARValid | 1
		cfg.RASR[1] = 0
	}
	m.Meter.Add(4 * cycles.Store)
}

// MPU is the monolithic Cortex-M driver.
type MPU struct {
	HW    *armv7m.MPUHardware
	Meter *cycles.Meter
	Bugs  BugSet
}

// New returns a monolithic driver over the given hardware.
func New(hw *armv7m.MPUHardware) *MPU { return &MPU{HW: hw} }

// AllocateAppMemRegion is the faithful port of Figure 4a: Tock's original
// allocate_app_memory_region for Cortex-M. It returns the process memory
// block (start, size) and mutates cfg, or ok=false if the request cannot
// be satisfied. Note everything the paper criticizes is preserved: the
// power-of-two block size leaking into the layout, the alignment
// adjustment, the `*8/region_size + 1` subregion count, and the
// discarding of subregs_enabled_end/kernel_mem_break that forces callers
// to recompute them.
func (m *MPU) AllocateAppMemRegion(
	unallocStart, unallocSize uint32,
	minSize, appSize, kernelSize uint32,
	cfg *MpuConfig,
) (uint32, uint32, bool) {
	m.Meter.Add(cycles.Call)

	// Make sure there is enough memory for app memory and kernel memory.
	memSize := max(minSize, appSize+kernelSize)
	memSizePo2 := verify.ClosestPowerOfTwo(memSize)
	m.Meter.Add(6 * cycles.ALU)

	// The region should start as close as possible to the start of
	// unallocated memory.
	regionStart := unallocStart
	regionSize := memSizePo2 / 2
	if regionSize < armv7m.MinSubregionedSize {
		regionSize = armv7m.MinSubregionedSize
		memSizePo2 = 2 * regionSize
	}

	// If the start and length don't align, move the region up.
	if regionStart%regionSize != 0 {
		regionStart += regionSize - regionStart%regionSize
		m.Meter.Add(cycles.Div + 2*cycles.ALU)
	}

	numEnabledSubregs := appSize*8/regionSize + 1
	subregSize := regionSize / 8
	m.Meter.Add(2*cycles.Div + 2*cycles.ALU)

	// End address of enabled subregions and initial kernel memory break.
	subregsEnabledEnd := regionStart + numEnabledSubregs*subregSize
	kernelMemBreak := regionStart + memSizePo2 - kernelSize
	m.Meter.Add(4 * cycles.ALU)

	if subregsEnabledEnd > kernelMemBreak {
		regionSize *= 2
		if !m.Bugs.GrantOverlap {
			// Upstream fix: the block must double with the region,
			// or the recomputed subregions still overlap the grant.
			memSizePo2 *= 2
		}
		if regionStart%regionSize != 0 {
			regionStart += regionSize - regionStart%regionSize
		}
		numEnabledSubregs = appSize*8/regionSize + 1
		subregSize = regionSize / 8
		subregsEnabledEnd = regionStart + numEnabledSubregs*subregSize
		kernelMemBreak = regionStart + memSizePo2 - kernelSize
		m.Meter.Add(3*cycles.Div + 8*cycles.ALU)
		if !m.Bugs.GrantOverlap && subregsEnabledEnd > kernelMemBreak {
			return 0, 0, false
		}
	}

	if uint64(regionStart)+uint64(memSizePo2) > uint64(unallocStart)+uint64(unallocSize) {
		return 0, 0, false
	}

	cfg.RegionStart = regionStart
	cfg.RegionSize = regionSize
	cfg.AppSize = appSize
	m.setRAMRegions(cfg, numEnabledSubregs)

	// The intermediate results (subregs_enabled_end, kernel_mem_break)
	// are discarded here, exactly as in Figure 4a — the disagreement
	// problem. Callers must recompute them.
	return regionStart, memSizePo2, true
}

// UpdateAppMemRegion is the monolithic update path used by brk/sbrk and
// (wastefully) by grant allocation. With BrkUnderflow set, the argument
// validation Tock was missing is skipped and malicious arguments reach the
// wrapping subregion arithmetic; the resulting kernel panic is surfaced as
// ErrKernelPanic.
func (m *MPU) UpdateAppMemRegion(newAppBreak, kernelBreak uint32, cfg *MpuConfig) error {
	m.Meter.Add(cycles.Call + 2*cycles.ALU)
	if cfg.RegionSize == 0 {
		return fmt.Errorf("monolithic: no allocated region to update")
	}
	if !m.Bugs.BrkUnderflow {
		// The validation the verification effort showed was needed.
		if err := verify.Require(newAppBreak > cfg.RegionStart, "update_app_mem_region",
			"newAppBreak > regionStart", "newAppBreak=0x%x regionStart=0x%x", newAppBreak, cfg.RegionStart); err != nil {
			return err
		}
		if err := verify.Require(newAppBreak <= kernelBreak, "update_app_mem_region",
			"newAppBreak <= kernelBreak", "newAppBreak=0x%x kernelBreak=0x%x", newAppBreak, kernelBreak); err != nil {
			return err
		}
		m.Meter.Add(2 * cycles.ALU)
	}

	appSize := newAppBreak - cfg.RegionStart // wraps when newAppBreak < regionStart
	numEnabledSubregs := appSize*8/cfg.RegionSize + 1
	m.Meter.Add(cycles.Div + 2*cycles.ALU)

	numEnabledSubregs0 := min(numEnabledSubregs, 8)
	if numEnabledSubregs0 == 0 || numEnabledSubregs > 16 {
		// num_enabled_subregions0 - 1 would underflow, or the break is
		// outside the representable block: Tock panics here.
		return ErrKernelPanic
	}

	subregsEnabledEnd := cfg.RegionStart + numEnabledSubregs*(cfg.RegionSize/8)
	if subregsEnabledEnd > kernelBreak && !m.Bugs.BrkUnderflow {
		return fmt.Errorf("monolithic: new break not representable below kernel break")
	}
	cfg.AppSize = appSize
	m.setRAMRegions(cfg, numEnabledSubregs)
	return nil
}

// ErrKernelPanic stands in for a Tock kernel panic (e.g. an arithmetic
// underflow caught by a debug assertion): the whole OS goes down.
var ErrKernelPanic = fmt.Errorf("monolithic: KERNEL PANIC: subregion arithmetic underflow")

// AllocateFlashRegion programs the flash code region (region 2), mirroring
// Tock's expose_memory/flash setup. Same representability constraints as
// the granular driver, implemented with Tock-style loops.
func (m *MPU) AllocateFlashRegion(start, size uint32, cfg *MpuConfig) bool {
	m.Meter.Add(cycles.Call)
	if size < armv7m.MinRegionSize {
		return false
	}
	ap := armv7m.EncodeAP(mpu.ReadExecuteOnly)
	if verify.IsPow2(size) && start%size == 0 {
		sizeField := uint32(0)
		for 1<<(sizeField+1) != size {
			sizeField++
			m.Meter.Add(cycles.ALU)
		}
		cfg.RBAR[2] = start&armv7m.RBARAddrMask | armv7m.RBARValid | 2
		cfg.RASR[2] = sizeField<<armv7m.RASRSizeShift | ap | armv7m.RASREnable
		return true
	}
	for fp := uint32(armv7m.MinSubregionedSize); fp != 0 && fp <= 1<<31; fp <<= 1 {
		m.Meter.Add(4 * cycles.ALU)
		sub := fp / 8
		if size%sub != 0 || size/sub > 8 || start%fp != 0 {
			continue
		}
		k := size / sub
		srd := uint32(0xFF) &^ ((1 << k) - 1)
		sizeField := uint32(0)
		for 1<<(sizeField+1) != fp {
			sizeField++
			m.Meter.Add(cycles.ALU)
		}
		cfg.RBAR[2] = start&armv7m.RBARAddrMask | armv7m.RBARValid | 2
		cfg.RASR[2] = sizeField<<armv7m.RASRSizeShift | srd<<armv7m.RASRSRDShift | ap | armv7m.RASREnable
		return true
	}
	return false
}

// ConfigureMPU writes the configuration to hardware and enables
// enforcement. Tock writes every region register on each context switch.
func (m *MPU) ConfigureMPU(cfg *MpuConfig) error {
	for i := 0; i < armv7m.NumRegions; i++ {
		m.Meter.Add(2 * cycles.MMIO)
		rbar := cfg.RBAR[i]
		if rbar == 0 {
			rbar = uint32(i) | armv7m.RBARValid
		}
		if err := m.HW.WriteRegion(i, rbar, cfg.RASR[i]); err != nil {
			return err
		}
	}
	m.HW.CtrlEnable = true
	m.Meter.Add(cycles.MMIO + cycles.Barrier)
	return nil
}

// DisableMPU turns enforcement off for kernel execution.
func (m *MPU) DisableMPU() {
	m.HW.CtrlEnable = false
	m.Meter.Add(cycles.MMIO)
}

// SubregsEnabledEnd recomputes the end of the enabled subregions from a
// config — the recomputation clients are forced into by the monolithic
// interface (the disagreement problem §3.2). Exposed for the checker.
func (cfg *MpuConfig) SubregsEnabledEnd() uint32 {
	srd0 := cfg.RASR[0] & armv7m.RASRSRDMask >> armv7m.RASRSRDShift
	srd1 := cfg.RASR[1] & armv7m.RASRSRDMask >> armv7m.RASRSRDShift
	enabled := uint32(0)
	for i := uint32(0); i < 8; i++ {
		if srd0&(1<<i) == 0 {
			enabled++
		}
	}
	if cfg.RASR[1]&armv7m.RASREnable != 0 {
		for i := uint32(0); i < 8; i++ {
			if srd1&(1<<i) == 0 {
				enabled++
			}
		}
	}
	return cfg.RegionStart + enabled*(cfg.RegionSize/8)
}

// AllocateIPCRegion programs MPU region 3 to cover [start, start+size)
// with read-only or read-write user access — the monolithic kernel's IPC
// sharing path. Same representability rules as the flash region.
func (m *MPU) AllocateIPCRegion(start, size uint32, writable bool, cfg *MpuConfig) bool {
	m.Meter.Add(cycles.Call)
	perms := mpu.ReadOnly
	if writable {
		perms = mpu.ReadWriteOnly
	}
	ap := armv7m.EncodeAP(perms)
	if size < armv7m.MinRegionSize {
		return false
	}
	if verify.IsPow2(size) && start%size == 0 {
		sizeField := uint32(0)
		for 1<<(sizeField+1) != size {
			sizeField++
			m.Meter.Add(cycles.ALU)
		}
		cfg.RBAR[3] = start&armv7m.RBARAddrMask | armv7m.RBARValid | 3
		cfg.RASR[3] = sizeField<<armv7m.RASRSizeShift | ap | armv7m.RASREnable
		return true
	}
	for fp := uint32(armv7m.MinSubregionedSize); fp != 0 && fp <= 1<<31; fp <<= 1 {
		m.Meter.Add(4 * cycles.ALU)
		sub := fp / 8
		if size%sub != 0 || size/sub > 8 || start%fp != 0 {
			continue
		}
		k := size / sub
		srd := uint32(0xFF) &^ ((1 << k) - 1)
		sizeField := uint32(0)
		for 1<<(sizeField+1) != fp {
			sizeField++
			m.Meter.Add(cycles.ALU)
		}
		cfg.RBAR[3] = start&armv7m.RBARAddrMask | armv7m.RBARValid | 3
		cfg.RASR[3] = sizeField<<armv7m.RASRSizeShift | srd<<armv7m.RASRSRDShift | ap | armv7m.RASREnable
		return true
	}
	return false
}
