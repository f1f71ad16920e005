// Package armv8m models the ARMv8-M memory protection unit, the successor
// to the ARMv7-M MPU the paper targets. The v8-M MPU drops the
// power-of-two/subregion scheme entirely: a region is a [RBAR.BASE,
// RLAR.LIMIT] pair with 32-byte granularity, and regions must not overlap.
//
// The package exists to demonstrate the granular RegionDescriptor
// abstraction's portability claim (§3.5): internal/core gains a v8-M
// driver whose kernel-facing behaviour is identical to the v7-M and PMP
// drivers, while the hardware bit layout and constraints differ
// completely — the kernel allocator code is reused unchanged.
package armv8m

import (
	"fmt"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// Register layout (ARMv8-M ARM, B3.5):
//
//	RBAR: [31:5] BASE  [4:3] SH  [2:1] AP  [0] XN
//	RLAR: [31:5] LIMIT [3:1] AttrIndx      [0] EN
//
// BASE is the region start (32-byte aligned); LIMIT is the address of the
// last 32-byte block (inclusive).
const (
	// NumRegions is typical for Cortex-M33 class parts.
	NumRegions = 8

	// Granule is the v8-M region granularity.
	Granule = 32

	// AddrMask extracts the 32-byte-aligned address bits.
	AddrMask = 0xFFFF_FFE0
)

// RBAR fields.
const (
	RBARXN = 1 << 0
	// AP[1]: 1 = unprivileged access allowed; AP[0]: 1 = read-only.
	RBARAPShift = 1
	RBARAPMask  = 3 << RBARAPShift
	APPrivOnly  = 0 // privileged RW only
	APRW        = 2 // RW any privilege
	APPrivRO    = 1 // privileged RO
	APRO        = 3 // RO any privilege
)

// RLAR fields.
const (
	RLAREnable = 1 << 0
)

// EncodeRBAR builds the RBAR attribute bits for logical permissions.
func EncodeRBAR(p mpu.Permissions) uint32 {
	var ap uint32
	xn := uint32(RBARXN)
	switch p {
	case mpu.NoAccess:
		ap = APPrivOnly
	case mpu.ReadOnly:
		ap = APRO
	case mpu.ReadWriteOnly:
		ap = APRW
	case mpu.ReadExecuteOnly:
		ap = APRO
		xn = 0
	case mpu.ReadWriteExecute:
		ap = APRW
		xn = 0
	}
	return ap<<RBARAPShift | xn
}

// apAllows evaluates the AP field.
func apAllows(ap uint32, privileged bool, kind mpu.AccessKind) bool {
	write := kind == mpu.AccessWrite
	switch ap {
	case APPrivOnly:
		return privileged
	case APRW:
		return true
	case APPrivRO:
		return privileged && !write
	case APRO:
		return !write
	default:
		return false
	}
}

// MPUHardware models the v8-M MPU registers. The access map derived
// from them, and the range queries answered from it, come from the
// embedded cache.
type MPUHardware struct {
	accessmap.Cache

	CtrlEnable bool
	PrivDefEna bool

	rbar [NumRegions]uint32
	rlar [NumRegions]uint32
}

// NewMPUHardware returns a disabled MPU.
func NewMPUHardware() *MPUHardware {
	h := &MPUHardware{PrivDefEna: true}
	h.Cache = accessmap.NewCache(h)
	return h
}

// Ctrl returns the MPU_CTRL bits the model keeps as fields, ENABLE (bit
// 0) and PRIVDEFENA (bit 2): the control word the access-map cache
// compares on every lookup.
func (h *MPUHardware) Ctrl() uint32 {
	var c uint32
	if h.CtrlEnable {
		c |= 1
	}
	if h.PrivDefEna {
		c |= 4
	}
	return c
}

// WriteRegion programs a region pair. v8-M forbids overlapping enabled
// regions; the model rejects them, as real hardware raises a fault on the
// ambiguous access instead.
func (h *MPUHardware) WriteRegion(number int, rbar, rlar uint32) error {
	if number < 0 || number >= NumRegions {
		return fmt.Errorf("armv8m: region %d out of range", number)
	}
	if rlar&RLAREnable != 0 {
		base := rbar & AddrMask
		limit := rlar & AddrMask
		if limit < base {
			return fmt.Errorf("armv8m: region %d limit 0x%08x below base 0x%08x", number, limit, base)
		}
		for i := 0; i < NumRegions; i++ {
			if i == number || h.rlar[i]&RLAREnable == 0 {
				continue
			}
			ob, ol := h.rbar[i]&AddrMask, h.rlar[i]&AddrMask
			if base <= ol && ob <= limit {
				return fmt.Errorf("armv8m: region %d overlaps enabled region %d", number, i)
			}
		}
	}
	h.rbar[number] = rbar
	h.rlar[number] = rlar
	h.Invalidate()
	return nil
}

// ClearRegion disables region number.
func (h *MPUHardware) ClearRegion(number int) error {
	if number < 0 || number >= NumRegions {
		return fmt.Errorf("armv8m: region %d out of range", number)
	}
	h.rbar[number] = 0
	h.rlar[number] = 0
	h.Invalidate()
	return nil
}

// Region returns the raw register pair.
func (h *MPUHardware) Region(number int) (rbar, rlar uint32) {
	return h.rbar[number], h.rlar[number]
}

// Check evaluates an access. Since enabled regions never overlap, at most
// one region matches.
func (h *MPUHardware) Check(addr uint32, kind mpu.AccessKind, privileged bool) error {
	if !h.CtrlEnable {
		return nil
	}
	for i := 0; i < NumRegions; i++ {
		if h.rlar[i]&RLAREnable == 0 {
			continue
		}
		base := h.rbar[i] & AddrMask
		limit := h.rlar[i]&AddrMask + (Granule - 1) // inclusive last byte
		if addr < base || addr > limit {
			continue
		}
		if kind == mpu.AccessExecute && h.rbar[i]&RBARXN != 0 {
			return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: privileged}
		}
		ap := h.rbar[i] & RBARAPMask >> RBARAPShift
		if !apAllows(ap, privileged, kind) {
			return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: privileged}
		}
		return nil
	}
	if privileged && h.PrivDefEna {
		return nil
	}
	return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: privileged}
}

// Boundaries collects every address at which the MPU decision can change:
// each enabled region's base and one-past-limit.
func (h *MPUHardware) Boundaries() []uint64 {
	bs := make([]uint64, 0, 2*NumRegions)
	for i := 0; i < NumRegions; i++ {
		if h.rlar[i]&RLAREnable == 0 {
			continue
		}
		base := uint64(h.rbar[i] & AddrMask)
		end := uint64(h.rlar[i]&AddrMask) + Granule
		bs = append(bs, base, end)
	}
	return bs
}
