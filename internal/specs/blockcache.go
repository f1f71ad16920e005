package specs

import (
	"ticktock/internal/accessmap"
	"ticktock/internal/armv7m"
	"ticktock/internal/armv8m"
	"ticktock/internal/blockcache"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/verify"
)

// The block-cache obligations: everything the fast core assumes beyond
// what the access-map oracle-equivalence specs already discharge.
//
//   - lookup_maximal: Map.Lookup returns exactly the maximal allow
//     interval around an address — agreeing with the per-byte hardware
//     Allows at the address, inside the whole interval, and (crucially)
//     *failing* just outside both ends. Maximality is what lets a block
//     span or a load/store hint stand in for per-access checks.
//   - block_exec_equiv: the block cover computed from one Lookup plus
//     CoverFromInterval counts exactly the leading instructions whose
//     first byte the hardware would pass — the fast core's single span
//     check is equivalent to the oracle's per-instruction checks.
//   - hint_invalidation_sound: after any configuration mutation
//     (validated writes, SEU FlipBits, control-register toggles) the
//     unit's access map changes, a warmed hint goes silent, and
//     re-warming yields the post-mutation hardware answer.
//   - timer_user_entry: the cross-port preemption contract — a tick
//     already pending when user code is entered preempts before any
//     user instruction retires, on both ports and both cores. This is
//     the piece both ports must agree on despite their documented
//     polling asymmetry (rv32 defers delivery while in machine mode;
//     armv7m polls unconditionally).

// CompBlockCache groups the fast-core obligations.
const CompBlockCache = "BlockCache"

const bcWinSize = 0x1800

var bcPrivs = []bool{false, true}

// bcBlockLen is the candidate block of the cover sweep, in 4-byte
// instructions; the sweep visits every word-aligned base whose whole
// block fits in the window.
const bcBlockLen = 16

// lookuper is the one engine query the block-cache sweeps make.
type lookuper interface {
	Lookup(addr uint32, kind mpu.AccessKind, privileged bool) (accessmap.Interval, bool)
}

// checkLookupMaximal sweeps every (addr, kind, privilege) in the window.
// Allows is read once per (byte, kind, privilege) of the window; interval
// ends outside it are asked of check directly. The end clauses depend
// only on (interval, kind, privilege), so they run once per run of
// addresses sharing an interval: last holds the interval whose ends
// passed (the zero Interval contains no address).
func checkLookupMaximal(t *verify.T, am lookuper, check accessmap.Checker, window, winSize uint32) {
	oracle := &oracleTable{check: check, base: window, size: winSize}
	var last [3][2]accessmap.Interval
	for off := uint32(0); off < winSize && !t.Stopped(); off++ {
		addr := window + off
		for ki, kind := range accessKinds {
			for pi, priv := range bcPrivs {
				t.Enumerate(1)
				iv, ok := am.Lookup(addr, kind, priv)
				if pass := oracle.allowed(addr, kind, priv); ok != pass {
					t.Failf("lookup oracle agreement", "addr=0x%08x kind=%v priv=%v lookup=%v check=%v", addr, kind, priv, ok, pass)
					return
				}
				if !ok {
					continue
				}
				if uint64(addr) < iv.Start || uint64(addr) >= iv.End {
					t.Failf("lookup containment", "addr=0x%08x outside [0x%x,0x%x)", addr, iv.Start, iv.End)
					return
				}
				seen := &last[ki][pi]
				if iv == *seen {
					continue
				}
				if !oracle.allowed(uint32(iv.Start), kind, priv) || !oracle.allowed(uint32(iv.End-1), kind, priv) {
					t.Failf("lookup interval allowed", "interval [0x%x,0x%x) kind=%v priv=%v has denied endpoint", iv.Start, iv.End, kind, priv)
					return
				}
				if iv.Start > 0 && oracle.allowed(uint32(iv.Start-1), kind, priv) {
					t.Failf("lookup maximality", "byte below Start=0x%x still allowed (kind=%v priv=%v)", iv.Start, kind, priv)
					return
				}
				if iv.End < accessmap.AddressSpace && oracle.allowed(uint32(iv.End), kind, priv) {
					t.Failf("lookup maximality", "byte at End=0x%x still allowed (kind=%v priv=%v)", iv.End, kind, priv)
					return
				}
				*seen = iv
			}
		}
	}
}

// checkBlockCover verifies that one Lookup + CoverFromInterval over a
// candidate block equals the oracle's leading per-first-byte checks,
// read from one oracle pass over the window.
func checkBlockCover(t *verify.T, am lookuper, check accessmap.Checker, window, winSize uint32) {
	oracle := &oracleTable{check: check, base: window, size: winSize}
	for off := uint32(0); off+4*bcBlockLen <= winSize && !t.Stopped(); off += 4 {
		base := window + off
		for _, priv := range bcPrivs {
			t.Enumerate(1)
			iv, ok := am.Lookup(base, mpu.AccessExecute, priv)
			cover := blockcache.CoverFromInterval(base, bcBlockLen, 4, iv)
			if !ok {
				if cover != 0 {
					t.Failf("block cover", "base=0x%08x denied but cover=%d", base, cover)
					return
				}
				continue
			}
			if cover < 1 || cover > bcBlockLen {
				t.Failf("block cover", "base=0x%08x cover=%d out of range", base, cover)
				return
			}
			for i := 0; i < bcBlockLen; i++ {
				first := base + 4*uint32(i)
				in := uint64(first) >= iv.Start && uint64(first) < iv.End
				if (i < cover) != in {
					t.Failf("block cover equivalence", "base=0x%08x instr=%d cover=%d in-interval=%v", base, i, cover, in)
					return
				}
				if i < cover && !oracle.allowed(first, mpu.AccessExecute, priv) {
					t.Failf("block cover soundness", "base=0x%08x instr=%d covered but hardware denies", base, i)
					return
				}
			}
		}
	}
}

// bcMutation is one way a protection configuration can change under the
// fast core: a validated write, an SEU, or a control toggle.
type bcMutation struct {
	name   string
	mutate func()
}

// checkHintInvalidation warms a hint per (addr, kind), applies the
// mutation, and demands: the map changed, the stale hint answers
// nothing, and a re-warmed hint reproduces the hardware verdict.
func checkHintInvalidation(t *verify.T, am func() *accessmap.Map,
	check accessmap.Checker, addrs []uint32, mut bcMutation) {
	var h blockcache.Hints
	kinds := []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite}
	before := am()
	for _, addr := range addrs {
		for _, kind := range kinds {
			h.Update(addr, 1, kind, false, before)
		}
	}
	mut.mutate()
	after := am()
	t.Enumerate(1)
	if after == before {
		t.Failf("map changes", "%s: access map unchanged after mutation", mut.name)
		return
	}
	// First pass: every pre-mutation hint must be silent under the new
	// map — checked before any Update, which would legitimately re-warm
	// the slots against the new configuration.
	for _, addr := range addrs {
		for _, kind := range kinds {
			t.Enumerate(1)
			if h.Allows(addr, 1, kind, false, after) {
				t.Failf("stale hint dies", "%s: pre-mutation hint for addr=0x%08x kind=%v still answers", mut.name, addr, kind)
				return
			}
		}
	}
	// Second pass: re-warming reproduces the post-mutation hardware
	// verdict exactly.
	for _, addr := range addrs {
		for _, kind := range kinds {
			t.Enumerate(1)
			got := h.Update(addr, 1, kind, false, after)
			if want := check(addr, kind, false); got != want {
				t.Failf("rewarmed hint matches hardware", "%s: addr=0x%08x kind=%v hint=%v check=%v", mut.name, addr, kind, got, want)
				return
			}
		}
	}
}

// timerScenario arms and advances a timer into a known pending state
// before user entry; wantPending says whether the latch should be set
// (and hence whether entry must preempt at zero retired instructions).
type timerScenario struct {
	name        string
	wantPending bool
	drive       func(arm func(uint64), advance func(uint64), dropNext func())
}

var timerScenarios = []timerScenario{
	{"expire_exact", true, func(arm func(uint64), adv func(uint64), _ func()) { arm(1); adv(1) }},
	{"expire_overshoot", true, func(arm func(uint64), adv func(uint64), _ func()) { arm(3); adv(7) }},
	{"expire_split", true, func(arm func(uint64), adv func(uint64), _ func()) { arm(2); adv(1); adv(1) }},
	{"drop_then_latch", true, func(arm func(uint64), adv func(uint64), drop func()) { arm(1); drop(); adv(1); adv(1) }},
	{"armed_not_expired", false, func(arm func(uint64), adv func(uint64), _ func()) { arm(50); adv(1) }},
	{"dropped", false, func(arm func(uint64), adv func(uint64), drop func()) { arm(1); drop(); adv(1) }},
}

// armTimerEntry runs one scenario on the ARM port. The ARM core polls
// SysTick unconditionally (no NVIC masking is modelled), so a
// privileged run pins the same entry contract user threads get.
func armTimerEntry(t *verify.T, sc timerScenario, fast bool) {
	mem := armv7m.NewMemory()
	must2(mem.Map("flash", 0, 0x8000))
	must2(mem.Map("ram", 0x2000_0000, 0x8000))
	m := armv7m.NewMachine(mem)
	m.SetFastCore(fast)
	a := armv7m.NewAssembler(0x100)
	a.Label("loop").
		Emit(armv7m.AddImm{Rd: armv7m.R0, Rn: armv7m.R0, Imm: 1}).
		BTo(armv7m.AL, "loop")
	must(m.LoadProgram(a.MustAssemble()))
	m.CPU.PC = 0x100
	m.CPU.MSP = 0x2000_7F00
	sc.drive(func(n uint64) { m.Tick.Arm(uint32(n)) }, m.Tick.Advance, m.Tick.DropNext)
	if m.Tick.Pending() != sc.wantPending {
		t.Failf("timer model", "armv7m/%s: pending=%v want %v", sc.name, m.Tick.Pending(), sc.wantPending)
		return
	}
	stop, err := m.Run(0)
	if err != nil {
		t.Failf("timer entry run", "armv7m/%s: %v", sc.name, err)
		return
	}
	retired := m.CPU.R[armv7m.R0]
	if stop.Reason != armv7m.StopPreempted {
		t.Failf("timer entry stop", "armv7m/%s: stop=%v", sc.name, stop.Reason)
		return
	}
	if sc.wantPending && retired != 0 {
		t.Failf("timer_user_entry", "armv7m/%s fast=%v: %d instructions retired before a pre-latched tick was delivered", sc.name, fast, retired)
	}
	if !sc.wantPending && retired == 0 {
		t.Failf("timer_user_entry", "armv7m/%s fast=%v: preempted at entry with no tick pending", sc.name, fast)
	}
}

// rvTimerEntry runs one scenario on the RISC-V port, latching in
// machine mode and resuming user code — the exact asymmetric path.
func rvTimerEntry(t *verify.T, sc timerScenario, fast bool) {
	mem := physmem.NewMemory()
	must2(mem.Map("flash", 0x2000_0000, 0x8000))
	must2(mem.Map("ram", 0x8000_0000, 0x8000))
	m := rv32.NewMachine(mem, riscv.ChipHiFive1)
	m.SetFastCore(fast)
	a := rv32.NewAssembler(0x2000_0000)
	a.Label("loop").
		Emit(rv32.Addi{Rd: rv32.A0, Rs1: rv32.A0, Imm: 1}).
		JTo("loop")
	must(m.LoadProgram(a.MustAssemble()))
	code, _ := riscv.EncodeNAPOT(0x2000_0000, 0x8000)
	must(m.PMP.SetEntry(0, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ANapot), code))
	sc.drive(m.Timer.Arm, m.Timer.Advance, m.Timer.DropNext)
	if m.Timer.Pending() != sc.wantPending {
		t.Failf("timer model", "rv32/%s: pending=%v want %v", sc.name, m.Timer.Pending(), sc.wantPending)
		return
	}
	m.ResumeUser(0x2000_0000)
	stop, err := m.Run(0)
	if err != nil {
		t.Failf("timer entry run", "rv32/%s: %v", sc.name, err)
		return
	}
	retired := m.X[rv32.A0]
	if stop.Reason != rv32.StopTimer {
		t.Failf("timer entry stop", "rv32/%s: stop=%v", sc.name, stop.Reason)
		return
	}
	if sc.wantPending && retired != 0 {
		t.Failf("timer_user_entry", "rv32/%s fast=%v: %d instructions retired before a pre-latched tick was delivered", sc.name, fast, retired)
	}
	if !sc.wantPending && retired == 0 {
		t.Failf("timer_user_entry", "rv32/%s fast=%v: preempted at entry with no tick pending", sc.name, fast)
	}
}

// BuildBlockCache registers the fast-core obligations.
func BuildBlockCache(sc Scale) *verify.Registry {
	_ = sc // the domains below are exhaustive per configuration
	r := verify.NewRegistry()

	// Adversarial protection states, one builder per port. The SRD
	// carve-out and corrupted states matter most: they produce the
	// fragmented interval sets where a wrong cover or hint shows up.
	v7m := func() *armv7m.MPUHardware {
		h := armv7m.NewMPUHardware()
		h.WriteCtrl(armv7m.CtrlEnable | armv7m.CtrlPrivDefEna)
		must(h.WriteRegion(0, 0x2000_0000, v7mRASR(2048, 1<<6|1<<7, mpu.ReadWriteOnly)))
		must(h.WriteRegion(2, 0x2000_0800, v7mRASR(1024, 1<<3, mpu.ReadExecuteOnly)))
		must(h.WriteRegion(3, 0x2000_0400, v7mRASR(1024, 0, mpu.ReadOnly)))
		return h
	}
	pmp := func() *riscv.PMP {
		p := riscv.NewPMP(riscv.ChipHiFive1)
		deny, _ := riscv.EncodeNAPOT(0x8000_0400, 64)
		must(p.SetEntry(0, riscv.ANapot<<riscv.CfgAShift, deny))
		rx, _ := riscv.EncodeNAPOT(0x8000_0000, 2048)
		must(p.SetEntry(1, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ANapot), rx))
		rw, _ := riscv.EncodeNAPOT(0x8000_0800, 1024)
		must(p.SetEntry(2, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), rw))
		return p
	}

	lookupDomain := uint64(bcWinSize) * uint64(len(accessKinds)) * uint64(len(bcPrivs))
	coverDomain := uint64((bcWinSize-4*bcBlockLen)/4+1) * uint64(len(bcPrivs))

	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/lookup_maximal/armv7m",
		SpecLines: 3, DomainSize: lookupDomain,
		Body: func(t *verify.T) {
			h := v7m()
			checkLookupMaximal(t, h.AccessMap(), h.Allows, 0x2000_0000-0x100, bcWinSize)
		},
	})
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/lookup_maximal/riscv",
		SpecLines: 3, DomainSize: lookupDomain,
		Body: func(t *verify.T) {
			p := pmp()
			checkLookupMaximal(t, p.AccessMap(), p.Allows, 0x8000_0000-0x100, bcWinSize)
		},
	})
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/block_exec_equiv/armv7m",
		SpecLines: 2, DomainSize: coverDomain,
		Body: func(t *verify.T) {
			h := v7m()
			checkBlockCover(t, h.AccessMap(), h.Allows, 0x2000_0000-0x100, bcWinSize)
		},
	})
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/block_exec_equiv/riscv",
		SpecLines: 2, DomainSize: coverDomain,
		Body: func(t *verify.T) {
			p := pmp()
			checkBlockCover(t, p.AccessMap(), p.Allows, 0x8000_0000-0x100, bcWinSize)
		},
	})

	v7mAddrs := []uint32{0x2000_0000, 0x2000_0100, 0x2000_0410, 0x2000_0700}
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/hint_invalidation_sound/armv7m",
		SpecLines: 2, DomainSize: uint64(4 * (len(v7mAddrs)*4 + 1)),
		Body: func(t *verify.T) {
			muts := []struct {
				name string
				run  func(h *armv7m.MPUHardware)
			}{
				{"writeregion_readonly", func(h *armv7m.MPUHardware) {
					must(h.WriteRegion(0, 0x2000_0000, v7mRASR(2048, 1<<6|1<<7, mpu.ReadOnly)))
				}},
				{"flipbits_ap", func(h *armv7m.MPUHardware) {
					h.FlipBits(0, 0, 1<<armv7m.RASRAPShift)
				}},
				{"clearregion", func(h *armv7m.MPUHardware) { must(h.ClearRegion(0)) }},
				{"ctrl_disable", func(h *armv7m.MPUHardware) { h.WriteCtrl(armv7m.CtrlPrivDefEna) }},
			}
			for _, mut := range muts {
				if t.Stopped() {
					return
				}
				h := v7m()
				checkHintInvalidation(t, h.AccessMap, h.Allows, v7mAddrs, bcMutation{mut.name, func() { mut.run(h) }})
			}
		},
	})
	// The v8-M port has no machine wired to the fast core yet, but its
	// MPU embeds the same access-map cache the hints consume, so the
	// invalidation obligation is pinned for it too (no FlipBits on this
	// model — SEU injection targets the v7-M and PMP ports).
	v8m := func() *armv8m.MPUHardware {
		h := armv8m.NewMPUHardware()
		h.WriteCtrl(armv8m.CtrlEnable | armv8m.CtrlPrivDefEna)
		must(h.WriteRegion(0, 0x2000_0000|armv8m.EncodeRBAR(mpu.ReadWriteOnly), 0x2000_03E0|armv8m.RLAREnable))
		must(h.WriteRegion(1, 0x2000_0400|armv8m.EncodeRBAR(mpu.ReadOnly), 0x2000_07E0|armv8m.RLAREnable))
		must(h.WriteRegion(2, 0x2000_0800|armv8m.EncodeRBAR(mpu.ReadExecuteOnly), 0x2000_0BE0|armv8m.RLAREnable))
		return h
	}
	v8mAddrs := []uint32{0x2000_0000, 0x2000_0100, 0x2000_0410, 0x2000_0900}
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/hint_invalidation_sound/armv8m",
		SpecLines: 2, DomainSize: uint64(3 * (len(v8mAddrs)*4 + 1)),
		Body: func(t *verify.T) {
			muts := []struct {
				name string
				run  func(h *armv8m.MPUHardware)
			}{
				{"writeregion_shrink", func(h *armv8m.MPUHardware) {
					must(h.WriteRegion(0, 0x2000_0000|armv8m.EncodeRBAR(mpu.ReadWriteOnly), 0x2000_00E0|armv8m.RLAREnable))
				}},
				{"clearregion", func(h *armv8m.MPUHardware) { must(h.ClearRegion(0)) }},
				{"ctrl_disable", func(h *armv8m.MPUHardware) { h.WriteCtrl(armv8m.CtrlPrivDefEna) }},
			}
			for _, mut := range muts {
				if t.Stopped() {
					return
				}
				h := v8m()
				checkHintInvalidation(t, h.AccessMap, h.Allows, v8mAddrs, bcMutation{mut.name, func() { mut.run(h) }})
			}
		},
	})

	rvAddrs := []uint32{0x8000_0000, 0x8000_0200, 0x8000_0440, 0x8000_0A00}
	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/hint_invalidation_sound/riscv",
		SpecLines: 2, DomainSize: uint64(3 * (len(rvAddrs)*4 + 1)),
		Body: func(t *verify.T) {
			muts := []struct {
				name string
				run  func(p *riscv.PMP)
			}{
				{"setentry_shrink", func(p *riscv.PMP) {
					small, _ := riscv.EncodeNAPOT(0x8000_0800, 64)
					must(p.SetEntry(2, riscv.EncodeCfg(mpu.ReadWriteOnly, riscv.ANapot), small))
				}},
				{"flipbits_w", func(p *riscv.PMP) { p.FlipBits(2, riscv.CfgW, 0) }},
				{"clearentry", func(p *riscv.PMP) { must(p.ClearEntry(2)) }},
			}
			for _, mut := range muts {
				if t.Stopped() {
					return
				}
				p := pmp()
				checkHintInvalidation(t, p.AccessMap, p.Allows, rvAddrs, bcMutation{mut.name, func() { mut.run(p) }})
			}
		},
	})

	r.Add(&verify.Spec{
		Component: CompBlockCache, Name: "blockcache/timer_user_entry",
		SpecLines: 2, DomainSize: uint64(len(timerScenarios) * 2 * 2),
		Body: func(t *verify.T) {
			for _, sc := range timerScenarios {
				for _, fast := range []bool{false, true} {
					if t.Stopped() {
						return
					}
					t.Enumerate(2)
					armTimerEntry(t, sc, fast)
					rvTimerEntry(t, sc, fast)
				}
			}
		},
	})

	return r
}

// must2 discards the mapped-region value from physmem.Memory.Map.
func must2[T any](v T, err error) {
	_ = v
	must(err)
}
