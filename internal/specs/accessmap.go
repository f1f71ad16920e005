package specs

import (
	"slices"

	"ticktock/internal/accessmap"
	"ticktock/internal/armv7m"
	"ticktock/internal/armv8m"
	"ticktock/internal/mpu"
	"ticktock/internal/riscv"
	"ticktock/internal/verify"
)

// The access-map oracle-equivalence obligations: for every port, the
// interval engine's range answers must coincide with the trusted per-byte
// Allows scan over the full bounded domain. The engine's correctness
// argument is "the boundary set is complete, so the decision is uniform
// inside each elementary segment"; these specs are the differential check
// that discharges it — any missing boundary shows up as a disagreement at
// some byte or range in the swept window.

// rangeQuerier is the port-independent face of the access-map engine:
// all three protection-unit models satisfy it.
type rangeQuerier interface {
	AccessibleUser(start, length uint32, kind mpu.AccessKind) bool
	AnyAccessibleUser(start, length uint32, kind mpu.AccessKind) bool
	AccessibleUserByteScan(start, length uint32, kind mpu.AccessKind) bool
	Allows(addr uint32, kind mpu.AccessKind, privileged bool) bool
}

var accessKinds = []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite, mpu.AccessExecute}

// amLengths is the per-start query-length domain: empty, single byte,
// sub-segment, segment-straddling and multi-segment spans.
var amLengths = []uint32{0, 1, 0x1F, 0x40, 0x101, 0x800}

const amStride = 0x80

// amDomainSize is the per-spec enumeration count for a window of winSize
// bytes: one point per (byte, kind) in the byte-granular sweep, one per
// (start, length, kind) range query, plus the address-space-edge probes.
func amDomainSize(winSize uint32) uint64 {
	return uint64(winSize)*uint64(len(accessKinds)) +
		uint64(winSize/amStride)*uint64(len(amLengths))*uint64(len(accessKinds)) +
		uint64(len(amEdgeQueries))*uint64(len(accessKinds))
}

// amEdgeQueries probes the end-of-address-space semantics shared by the
// engine and the byte-scan oracle.
var amEdgeQueries = []struct{ start, length uint32 }{
	{0xFFFF_FFE0, 0x20},
	{0xFFFF_FFE0, 0x40},
	{0xFFFF_FFFF, 1},
	{0xFFFF_FFFF, 2},
	{0, 0},
}

// oracleTable is the unit's per-byte Allows read once per (byte, kind,
// privilege) over one swept window, kept as prefix counts of the allowed
// bytes, so no clause asks the oracle twice about one byte. A byte's
// answer is a one-byte count, a range is
// all-allowed when its count equals its length and any-allowed when its
// count is positive. Addresses outside the window go to check itself.
// Bodies build one per run, and each (kind, privilege) is read on first
// use; registration never reads any.
type oracleTable struct {
	check      accessmap.Checker
	base, size uint32
	// counts[slot][i] is the number of allowed bytes in [base, base+i),
	// one slot per (kind, privilege); nil until first used.
	counts [6][]uint32
}

// slot returns the prefix counts of (kind, priv), reading the window on
// first use.
func (o *oracleTable) slot(kind mpu.AccessKind, priv bool) []uint32 {
	i := int(kind) * 2
	if priv {
		i++
	}
	if o.counts[i] == nil {
		c := make([]uint32, o.size+1)
		for off := uint32(0); off < o.size; off++ {
			c[off+1] = c[off]
			if o.check(o.base+off, kind, priv) {
				c[off+1]++
			}
		}
		o.counts[i] = c
	}
	return o.counts[i]
}

// count returns the allowed bytes of [start, start+length), a range
// inside the table.
func (o *oracleTable) count(start, length uint32, kind mpu.AccessKind, priv bool) uint32 {
	c, i := o.slot(kind, priv), start-o.base
	return c[i+length] - c[i]
}

// allowed is Allows's answer at addr: read from the table inside it, asked
// of the unit outside it.
func (o *oracleTable) allowed(addr uint32, kind mpu.AccessKind, priv bool) bool {
	if addr-o.base >= o.size {
		return o.check(addr, kind, priv)
	}
	return o.count(addr, 1, kind, priv) == 1
}

// checkOracleEquivalence sweeps [window, window+winSize): every byte must
// get the same answer from the interval map and the hardware Allows, and
// every (start, length, kind) range query must match the per-byte scan,
// for both the all-bytes and any-byte forms. The in-window answers come
// from one oracle pass over the window plus the longest query; the
// address-space-edge queries go through the unit's own byte scan.
func checkOracleEquivalence(t *verify.T, hw rangeQuerier, window, winSize uint32) {
	oracle := &oracleTable{check: hw.Allows, base: window, size: winSize + slices.Max(amLengths)}
	for off := uint32(0); off < winSize && !t.Stopped(); off++ {
		addr := window + off
		for _, kind := range accessKinds {
			t.Enumerate(1)
			if got, want := hw.AccessibleUser(addr, 1, kind), oracle.allowed(addr, kind, false); got != want {
				t.Failf("byte equivalence", "addr=0x%08x kind=%v map=%v check=%v", addr, kind, got, want)
				return
			}
		}
	}
	for off := uint32(0); off < winSize && !t.Stopped(); off += amStride {
		start := window + off
		for _, length := range amLengths {
			for _, kind := range accessKinds {
				t.Enumerate(1)
				n := oracle.count(start, length, kind, false)
				if got, want := hw.AccessibleUser(start, length, kind), n == length; got != want {
					t.Failf("all-range equivalence", "start=0x%08x len=%d kind=%v map=%v scan=%v", start, length, kind, got, want)
					return
				}
				if got, want := hw.AnyAccessibleUser(start, length, kind), n > 0; got != want {
					t.Failf("any-range equivalence", "start=0x%08x len=%d kind=%v map=%v scan=%v", start, length, kind, got, want)
					return
				}
			}
		}
	}
	for _, q := range amEdgeQueries {
		for _, kind := range accessKinds {
			t.Enumerate(1)
			if got, want := hw.AccessibleUser(q.start, q.length, kind), hw.AccessibleUserByteScan(q.start, q.length, kind); got != want {
				t.Failf("edge equivalence", "start=0x%08x len=0x%x kind=%v map=%v scan=%v", q.start, q.length, kind, got, want)
				return
			}
		}
	}
}

// amConfig is one oracle-equivalence obligation: a protection unit in
// an adversarial register state and the window swept over it.
type amConfig struct {
	name   string
	window uint32
	build  func() rangeQuerier
}

// amWinSize is the swept window of every access-map obligation.
const amWinSize = 0x3000

// accessMapConfigs lists the register states per port, in registration
// order: subregion carve-outs, overlapping regions with priority, XN,
// disabled background maps, locked entries, every PMP address mode, and
// raw fault-injection corruption that the validated write paths would
// reject.
func accessMapConfigs() []amConfig {
	const armWindow, rvWindow = 0x2000_0000 - 0x100, 0x8000_0000 - 0x100
	cs := []amConfig{
		{"accessmap/armv7m/basic_rw", armWindow, func() rangeQuerier {
			h := armv7m.NewMPUHardware()
			h.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
			must(h.WriteRegion(0, 0x2000_0000, v7mRASR(1024, 0, mpu.ReadWriteOnly)))
			return h
		}},
		{"accessmap/armv7m/srd_carveout_overlap", armWindow, func() rangeQuerier {
			h := armv7m.NewMPUHardware()
			h.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
			// 2 KiB RW region with the top quarter carved out, overlapped
			// by a higher-numbered RO region: number priority decides.
			must(h.WriteRegion(0, 0x2000_0000, v7mRASR(2048, 1<<6|1<<7, mpu.ReadWriteOnly)))
			must(h.WriteRegion(3, 0x2000_0400, v7mRASR(1024, 0, mpu.ReadOnly)))
			return h
		}},
		{"accessmap/armv7m/exec_privdef_off", armWindow, func() rangeQuerier {
			h := armv7m.NewMPUHardware()
			h.WriteCtrl(armv7m.CtrlEnable)
			must(h.WriteRegion(1, 0x2000_1000, v7mRASR(4096, 0, mpu.ReadExecuteOnly)))
			return h
		}},
		{"accessmap/armv7m/flipbits_corrupted", armWindow, func() rangeQuerier {
			h := armv7m.NewMPUHardware()
			h.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
			must(h.WriteRegion(0, 0x2000_0000, v7mRASR(2048, 0, mpu.ReadWriteOnly)))
			// An SEU scrambles the size field and SRD bits: the engine
			// must track whatever illegal state results.
			h.FlipBits(0, 0x40, 0xA5<<armv7m.RASRSRDShift|1<<armv7m.RASRSizeShift)
			return h
		}},
		{"accessmap/armv7m/disabled", armWindow, func() rangeQuerier {
			return armv7m.NewMPUHardware()
		}},
		{"accessmap/armv8m/two_regions", armWindow, func() rangeQuerier {
			h := armv8m.NewMPUHardware()
			h.WriteCtrl(armv8m.CtrlEnable | armv8m.CtrlPrivDefEna)
			must(h.WriteRegion(0, 0x2000_0000|armv8m.EncodeRBAR(mpu.ReadWriteOnly), 0x2000_03E0|armv8m.RLAREnable))
			must(h.WriteRegion(1, 0x2000_0800|armv8m.EncodeRBAR(mpu.ReadExecuteOnly), 0x2000_0BE0|armv8m.RLAREnable))
			return h
		}},
		{"accessmap/armv8m/privdef_off", armWindow, func() rangeQuerier {
			h := armv8m.NewMPUHardware()
			h.WriteCtrl(armv8m.CtrlEnable)
			must(h.WriteRegion(0, 0x2000_0100|armv8m.EncodeRBAR(mpu.ReadOnly), 0x2000_01E0|armv8m.RLAREnable))
			return h
		}},
		{"accessmap/armv8m/disabled", armWindow, func() rangeQuerier {
			return armv8m.NewMPUHardware()
		}},
	}
	for _, chip := range riscv.Chips {
		chip := chip
		prefix := "accessmap/riscv/" + chip.Name + "/"
		cs = append(cs, amConfig{prefix + "napot_mix", rvWindow, func() rangeQuerier {
			p := riscv.NewPMP(chip)
			// Deny window shadowing an RW window (lowest entry wins),
			// plus an NA4 quad and a locked RO region.
			deny, _ := riscv.EncodeNAPOT(0x8000_0400, 64)
			must(p.SetEntry(0, riscv.ANapot<<riscv.CfgAShift, deny))
			rw, _ := riscv.EncodeNAPOT(0x8000_0000, 4096)
			must(p.SetEntry(1, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), rw))
			must(p.SetEntry(2, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANa4), 0x8000_2000>>2))
			ro, _ := riscv.EncodeNAPOT(0x8000_1000, 256)
			must(p.SetEntry(3, riscv.CfgL|riscv.EncodeCfg(mpu.ReadOnly, riscv.ANapot), ro))
			return p
		}}, amConfig{prefix + "flipbits_corrupted", rvWindow, func() rangeQuerier {
			p := riscv.NewPMP(chip)
			rw, _ := riscv.EncodeNAPOT(0x8000_0000, 4096)
			must(p.SetEntry(0, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), rw))
			// The SEU rewrites the address mode and scrambles the
			// address register: illegal states the engine must track.
			p.FlipBits(0, riscv.CfgAMask, 0x0000_F0F1)
			p.FlipBits(1, riscv.EncodeCfg(mpu.ReadOnly, riscv.ANapot), 0x2000_0FFF)
			return p
		}})
		if chip.TORSupported {
			cs = append(cs, amConfig{prefix + "tor_pair", rvWindow, func() rangeQuerier {
				p := riscv.NewPMP(chip)
				must(p.SetEntry(0, 0, 0x8000_0400>>2))
				must(p.SetEntry(1, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ATor), 0x8000_2400>>2))
				rw, _ := riscv.EncodeNAPOT(0x8000_4000, 1024)
				must(p.SetEntry(2, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), rw))
				return p
			}})
		}
	}
	return cs
}

// BuildAccessMap registers one oracle-equivalence obligation per entry
// of accessMapConfigs.
func BuildAccessMap(sc Scale) *verify.Registry {
	_ = sc // the window is fixed; the domain is already exhaustive per config
	r := verify.NewRegistry()
	for _, c := range accessMapConfigs() {
		c := c
		r.Add(&verify.Spec{
			Component:  CompAccessMap,
			Name:       c.name,
			SpecLines:  2,
			DomainSize: amDomainSize(amWinSize),
			Body: func(t *verify.T) {
				checkOracleEquivalence(t, c.build(), c.window, amWinSize)
			},
		})
	}
	return r
}

// v7mRASR builds an enabled RASR value; specs panic on impossible
// fixture configurations rather than reporting them as violations.
func v7mRASR(size uint32, srd uint8, perms mpu.Permissions) uint32 {
	var sz uint32
	for 1<<(sz+1) != size {
		sz++
	}
	return sz<<armv7m.RASRSizeShift | uint32(srd)<<armv7m.RASRSRDShift |
		armv7m.EncodeAP(perms) | armv7m.RASREnable
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
