// Package riscv models the RISC-V Physical Memory Protection (PMP) unit
// for 32-bit cores, as used by the Tock ports the TickTock paper verifies.
// It implements the pmpcfg/pmpaddr CSR encodings (privileged spec §3.7):
// OFF, TOR (top-of-range) and NAPOT (naturally-aligned power-of-two)
// address matching, lowest-numbered-entry priority, and the machine-mode
// default-allow rule.
//
// Three chip configurations mirror the three RISC-V 32-bit targets the
// paper supports: entry counts and granularities differ, which is exactly
// the hardware variability the granular RegionDescriptor abstraction in
// internal/core hides from the kernel.
package riscv

import (
	"fmt"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// pmpcfg bit fields (privileged spec table 3.10).
const (
	CfgR = 1 << 0
	CfgW = 1 << 1
	CfgX = 1 << 2
	// A field, bits [4:3].
	CfgAShift = 3
	CfgAMask  = 3 << CfgAShift
	AOff      = 0
	ATor      = 1
	ANa4      = 2
	ANapot    = 3
	// CfgL locks the entry and applies it to M-mode too.
	CfgL = 1 << 7
)

// EncodeCfg builds a pmpcfg byte from logical permissions and an address
// mode.
func EncodeCfg(p mpu.Permissions, mode uint8) uint8 {
	var c uint8
	if p.AllowsRead() {
		c |= CfgR
	}
	if p.AllowsWrite() {
		c |= CfgW
	}
	if p.AllowsExecute() {
		c |= CfgX
	}
	c |= (mode & 3) << CfgAShift
	return c
}

// ChipConfig describes the PMP capabilities of a particular chip.
type ChipConfig struct {
	Name string
	// Entries is the number of implemented PMP entries.
	Entries int
	// Granularity is the smallest protectable unit in bytes (G=0 means
	// 4 bytes). NAPOT regions must be at least twice the granularity.
	Granularity uint32
	// TORSupported reports whether top-of-range mode works; some cores
	// (e.g. ESP32-C3's original PMP) restrict usable modes.
	TORSupported bool
}

// The three RISC-V 32-bit chips the paper's port supports, modelled after
// the Tock targets: SiFive FE310-G002 (HiFive1 rev B), Espressif ESP32-C3,
// and the LiteX/VexRiscv simulation target.
var (
	ChipHiFive1 = ChipConfig{Name: "fe310-g002", Entries: 8, Granularity: 4, TORSupported: true}
	ChipESP32C3 = ChipConfig{Name: "esp32-c3", Entries: 16, Granularity: 4, TORSupported: false}
	ChipLiteX   = ChipConfig{Name: "litex-vexriscv", Entries: 16, Granularity: 4, TORSupported: true}
)

// Chips lists all supported chip configurations.
var Chips = []ChipConfig{ChipHiFive1, ChipESP32C3, ChipLiteX}

// PMP models the CSR state of a PMP unit. The access map derived from
// the CSRs, and the range queries answered from it, come from the
// embedded cache.
type PMP struct {
	accessmap.Cache

	Chip ChipConfig
	cfg  []uint8
	addr []uint32 // pmpaddr registers: physical address >> 2
}

// NewPMP returns a PMP with all entries OFF.
func NewPMP(chip ChipConfig) *PMP {
	p := &PMP{
		Chip: chip,
		cfg:  make([]uint8, chip.Entries),
		addr: make([]uint32, chip.Entries),
	}
	p.Cache = accessmap.NewCache(p)
	return p
}

// Ctrl returns 0: every PMP configuration input lives behind SetEntry
// and FlipBits, which invalidate the access-map cache.
func (p *PMP) Ctrl() uint32 { return 0 }

// SetEntry writes pmpcfg[i] and pmpaddr[i]. Locked entries reject writes,
// as the hardware silently ignores them — surfaced as an error here so the
// kernel notices.
func (p *PMP) SetEntry(i int, cfg uint8, addrReg uint32) error {
	if i < 0 || i >= p.Chip.Entries {
		return fmt.Errorf("riscv: pmp entry %d out of range (chip %s has %d)", i, p.Chip.Name, p.Chip.Entries)
	}
	if p.cfg[i]&CfgL != 0 {
		return fmt.Errorf("riscv: pmp entry %d is locked", i)
	}
	mode := cfg & CfgAMask >> CfgAShift
	if mode == ATor && !p.Chip.TORSupported {
		return fmt.Errorf("riscv: chip %s does not support TOR mode", p.Chip.Name)
	}
	if cfg&CfgW != 0 && cfg&CfgR == 0 {
		// W without R is reserved (spec §3.7.1).
		return fmt.Errorf("riscv: pmp entry %d has reserved W-without-R encoding", i)
	}
	// Enforce the chip's protection granularity at the CSR write path
	// (spec §3.7.1: with grain G, NAPOT regions span at least 2G and
	// TOR/OFF address bits below the grain read as zero — surfaced as an
	// error here so the kernel notices instead of silently protecting a
	// different range).
	g := p.Chip.Granularity
	if g < 4 {
		g = 4
	}
	switch mode {
	case ANapot:
		if _, size := napotRange(addrReg); size < 2*uint64(g) {
			return fmt.Errorf("riscv: pmp entry %d NAPOT size %d below twice the %d-byte granularity of chip %s",
				i, size, g, p.Chip.Name)
		}
	case ANa4:
		if g > 4 {
			return fmt.Errorf("riscv: chip %s (granularity %d) does not support NA4", p.Chip.Name, g)
		}
	case ATor, AOff:
		// OFF entries seed the next entry's TOR lower bound, so both
		// modes carry addresses that must sit on the grain.
		if a := uint64(addrReg) << 2; a%uint64(g) != 0 {
			return fmt.Errorf("riscv: pmp entry %d bound 0x%08x not aligned to the %d-byte granularity of chip %s",
				i, a, g, p.Chip.Name)
		}
	}
	p.cfg[i] = cfg
	p.addr[i] = addrReg
	p.Invalidate()
	return nil
}

// ClearEntry turns entry i OFF.
func (p *PMP) ClearEntry(i int) error { return p.SetEntry(i, 0, 0) }

// FlipBits XORs raw bit patterns into pmpcfg[i] and pmpaddr[i], bypassing
// the SetEntry validation (lock bits, reserved encodings, TOR support) —
// modelling a single-event upset striking the CSR file rather than a
// csrw. Out-of-range entries no-op.
func (p *PMP) FlipBits(i int, cfgXor uint8, addrXor uint32) {
	if i < 0 || i >= p.Chip.Entries {
		return
	}
	p.cfg[i] ^= cfgXor
	p.addr[i] ^= addrXor
	p.Invalidate()
}

// Entry returns the raw CSR values of entry i.
func (p *PMP) Entry(i int) (cfg uint8, addrReg uint32) { return p.cfg[i], p.addr[i] }

// napotRange decodes a NAPOT pmpaddr register to (base, size).
func napotRange(addrReg uint32) (base uint64, size uint64) {
	// Count trailing ones: k trailing ones → size 2^(k+3) bytes.
	k := 0
	v := addrReg
	for v&1 == 1 {
		k++
		v >>= 1
	}
	size = 1 << (k + 3)
	base = uint64(addrReg&^((1<<uint(k))-1)) << 2
	return base, size
}

// EncodeNAPOT builds the pmpaddr value for a naturally-aligned
// power-of-two region. size must be a power of two ≥ 8 and base must be
// aligned to size.
func EncodeNAPOT(base uint32, size uint32) (uint32, error) {
	if size < 8 || size&(size-1) != 0 {
		return 0, fmt.Errorf("riscv: NAPOT size %d not a power of two >= 8", size)
	}
	if base%size != 0 {
		return 0, fmt.Errorf("riscv: NAPOT base 0x%08x not aligned to size %d", base, size)
	}
	return base>>2 | (size/8 - 1), nil
}

// match reports whether addr matches entry i, and the matched range.
func (p *PMP) match(i int, addr uint32) bool {
	mode := p.cfg[i] & CfgAMask >> CfgAShift
	a := uint64(addr)
	switch mode {
	case AOff:
		return false
	case ATor:
		var lo uint64
		if i > 0 {
			lo = uint64(p.addr[i-1]) << 2
		}
		hi := uint64(p.addr[i]) << 2
		return a >= lo && a < hi
	case ANa4:
		base := uint64(p.addr[i]) << 2
		return a >= base && a < base+4
	case ANapot:
		base, size := napotRange(p.addr[i])
		return a >= base && a < base+size
	default:
		return false
	}
}

// Check evaluates an access. PMP priority is the lowest-numbered matching
// entry; if no entry matches, machine-mode (privileged) accesses succeed
// and user-mode accesses fail (when any entries are implemented).
func (p *PMP) Check(addr uint32, kind mpu.AccessKind, machineMode bool) error {
	for i := 0; i < p.Chip.Entries; i++ {
		if !p.match(i, addr) {
			continue
		}
		cfg := p.cfg[i]
		if machineMode && cfg&CfgL == 0 {
			return nil // unlocked entries do not constrain M-mode
		}
		var ok bool
		switch kind {
		case mpu.AccessRead:
			ok = cfg&CfgR != 0
		case mpu.AccessWrite:
			ok = cfg&CfgW != 0
		case mpu.AccessExecute:
			ok = cfg&CfgX != 0
		}
		if !ok {
			return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: machineMode}
		}
		return nil
	}
	if machineMode {
		return nil
	}
	return &mpu.ProtectionError{Addr: addr, Kind: kind, Privileged: false}
}

// Boundaries collects every address at which the PMP decision can change:
// per entry, the TOR pair's bounds (the lower bound reads the previous
// entry's pmpaddr regardless of that entry's mode), the NA4 quad, or the
// decoded NAPOT span.
func (p *PMP) Boundaries() []uint64 {
	bs := make([]uint64, 0, 2*p.Chip.Entries)
	for i := 0; i < p.Chip.Entries; i++ {
		switch p.cfg[i] & CfgAMask >> CfgAShift {
		case ATor:
			var lo uint64
			if i > 0 {
				lo = uint64(p.addr[i-1]) << 2
			}
			bs = append(bs, lo, uint64(p.addr[i])<<2)
		case ANa4:
			base := uint64(p.addr[i]) << 2
			bs = append(bs, base, base+4)
		case ANapot:
			base, size := napotRange(p.addr[i])
			bs = append(bs, base, base+size)
		}
	}
	return bs
}

// DecodeNAPOT decodes a NAPOT pmpaddr register value to its (base, size)
// range. Exported for region descriptors that must derive their logical
// view from raw CSR bits.
func DecodeNAPOT(addrReg uint32) (base uint64, size uint64) {
	return napotRange(addrReg)
}
