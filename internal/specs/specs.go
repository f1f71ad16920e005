// Package specs assembles the full proof-obligation registry of
// TickTock-Go: every contract the system must uphold, organized by
// component exactly as the paper's Figure 10 tabulates its Flux
// annotations, and runnable as bounded exhaustive checks the way Flux
// discharges them with SMT (feeding Figure 12's verification-time table).
//
// Three registries mirror the three rows of Figure 12:
//
//   - Monolithic: obligations over the original Tock abstraction. One
//     obligation — allocate_app_mem_region's postcondition — requires
//     sweeping the fully *entangled* parameter space (alignment × app
//     size × kernel size × declared minimum), because the hardware
//     constraints and the kernel policy cannot be checked separately.
//     It dominates the suite, as the paper reports (">90% of the time").
//   - Granular: the same guarantees over the TickTock design, but the
//     decoupled interfaces let each obligation range over a small,
//     per-interface domain, so the suite is roughly an order of
//     magnitude faster.
//   - Interrupts: the fluxarm round-trip obligations, each a composed
//     handler model run under an adversarial process.
package specs

import (
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/armv8m"
	"ticktock/internal/core"
	"ticktock/internal/dma"
	"ticktock/internal/fluxarm"
	"ticktock/internal/monolithic"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
	"ticktock/internal/verify"
)

// Component names (Figure 10 rows).
const (
	CompKernel     = "Kernel"
	CompArmMPU     = "ARM MPU"
	CompRiscvMPU   = "RISC-V MPU"
	CompFluxStd    = "Flux-Std"
	CompFluxArm    = "FluxArm"
	CompMonolithic = "Monolithic"
	CompAccessMap  = "AccessMap"
)

const (
	poolStart = 0x2000_0000
	poolSize  = 0x0004_0000
	flashBase = 0x0004_0000
	flashSize = 0x1000
)

// Scale multiplies domain densities. 1 is the quick (test) setting;
// verifybench uses larger scales for the Figure 12 run.
type Scale struct {
	// AppSizes is how many app-size sample points each obligation uses.
	AppSizes int
	// Align is how many pool-start alignments the entangled monolithic
	// obligation sweeps.
	Align int
	// Seeds is the fluxarm havoc seed count.
	Seeds int
}

// QuickScale keeps test runs fast.
var QuickScale = Scale{AppSizes: 12, Align: 8, Seeds: 2}

// PaperScale is the verifybench setting.
var PaperScale = Scale{AppSizes: 64, Align: 64, Seeds: 8}

// appSizeDomain returns n app sizes spread over [64, 12000].
func appSizeDomain(n int) []uint32 {
	if n < 1 {
		n = 1
	}
	step := uint32(12000 / n)
	if step == 0 {
		step = 1
	}
	return verify.Range(64, 12000, step)
}

var kernelSizes = []uint32{128, 512, 1024, 2048}

// BuildGranular registers the TickTock-side obligations: the generic
// kernel allocator (CompKernel), the Cortex-M driver (CompArmMPU), the
// PMP drivers (CompRiscvMPU) and the refined helper library (CompFluxStd).
func BuildGranular(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	apps := appSizeDomain(sc.AppSizes)

	// --- Kernel: allocator obligations, one per (appSize, kernelSize).
	for _, app := range apps {
		for _, ks := range kernelSizes {
			app, ks := app, ks
			r.Add(&verify.Spec{
				Component: CompKernel,
				Name:      fmt.Sprintf("kernel/allocate_app_memory/app=%d/k=%d", app, ks),
				SpecLines: 1,
				Body: func(t *verify.T) {
					a := core.NewAllocator[core.CortexMRegion](core.NewCortexMMPU(armv7m.NewMPUHardware()), core.Config{})
					err := a.AllocateAppMemory(poolStart, poolSize, app*2+ks+4096, app, ks, flashBase, flashSize)
					if err != nil {
						return // infeasible request: vacuous
					}
					if err := a.CheckCorrespondence(); err != nil {
						t.Failf("correspondence", "app=%d k=%d: %v", app, ks, err)
					}
					b := a.Breaks()
					if b.AppBreak()-b.MemoryStart() < app {
						t.Failf("covers request", "accessible %d < %d", b.AppBreak()-b.MemoryStart(), app)
					}
					if b.GrantSize() != ks {
						t.Failf("grant size", "got %d want %d", b.GrantSize(), ks)
					}
				},
			})
		}
	}

	// --- Kernel: brk obligations.
	for _, app := range apps {
		app := app
		r.Add(&verify.Spec{
			Component:  CompKernel,
			Name:       fmt.Sprintf("kernel/brk/app=%d", app),
			SpecLines:  1,
			DomainSize: 6,
			Body: func(t *verify.T) {
				a := core.NewAllocator[core.CortexMRegion](core.NewCortexMMPU(armv7m.NewMPUHardware()), core.Config{})
				if err := a.AllocateAppMemory(poolStart, poolSize, app*2+4096, app, 1024, flashBase, flashSize); err != nil {
					return
				}
				b := a.Breaks()
				for _, target := range []uint32{
					b.MemoryStart() + 1, b.MemoryStart() + app/2, b.KernelBreak() - 64,
					b.MemoryStart() - 4, b.KernelBreak(), b.KernelBreak() + 100,
				} {
					t.Enumerate(1)
					legal := target >= b.MemoryStart() && target < b.KernelBreak()
					err := a.Brk(target)
					if err == nil && !legal {
						t.Failf("brk validation", "illegal break 0x%x accepted", target)
					}
					if err := a.CheckCorrespondence(); err != nil {
						t.Failf("correspondence after brk", "target=0x%x: %v", target, err)
					}
					if b.AppBreak() >= b.KernelBreak() {
						t.Failf("appBreak < kernelBreak", "after brk 0x%x", target)
					}
				}
			},
		})
	}

	// --- Kernel: grant obligations.
	for _, ks := range kernelSizes {
		ks := ks
		r.Add(&verify.Spec{
			Component: CompKernel,
			Name:      fmt.Sprintf("kernel/allocate_grant/k=%d", ks),
			SpecLines: 1,
			Body: func(t *verify.T) {
				a := core.NewAllocator[core.CortexMRegion](core.NewCortexMMPU(armv7m.NewMPUHardware()), core.Config{})
				if err := a.AllocateAppMemory(poolStart, poolSize, 4096+ks+4096, 4096, ks, flashBase, flashSize); err != nil {
					return
				}
				b := a.Breaks()
				for i := 0; i < 200; i++ {
					t.Enumerate(1)
					addr, err := a.AllocateGrant(64)
					if err != nil {
						break
					}
					if addr <= b.AppBreak() || addr >= b.MemoryEnd() {
						t.Failf("grant placement", "grant at 0x%x outside kernel region", addr)
					}
				}
				if err := a.CheckCorrespondence(); err != nil {
					t.Failf("correspondence after grants", "%v", err)
				}
			},
		})
	}

	// --- Kernel: AppBreaks invariant obligations. The domain is the
	// cross product the body sweeps; the Range length depends only on sz.
	var abDomain uint64
	for _, sz := range []uint32{1024, 4096} {
		abDomain += 2 * uint64(len(verify.Range(0x2000_0000-64, 0x2000_0000+sz+64, 256))) * 3
	}
	r.Add(&verify.Spec{
		Component:  CompKernel,
		Name:       "kernel/app_breaks_invariants",
		SpecLines:  6,
		DomainSize: abDomain,
		Body: func(t *verify.T) {
			for _, ms := range []uint32{0x2000_0000, 0x2000_0400} {
				for _, sz := range []uint32{1024, 4096} {
					for _, ab := range verify.Range(ms-64, ms+sz+64, 256) {
						for _, ks := range []uint32{0, 64, sz / 2} {
							t.Enumerate(1)
							b, err := core.NewAppBreaks(ms, sz, ab, ks, 0, 1024)
							legal := ab >= ms && ab < ms+sz-ks && ks <= sz
							if (err == nil) != legal {
								t.Failf("invariant boundary", "ms=0x%x sz=%d ab=0x%x ks=%d err=%v", ms, sz, ab, ks, err)
							}
							if err == nil && b.AppBreak() >= b.KernelBreak() {
								t.Failf("constructed state", "invariant broken after NewAppBreaks")
							}
						}
					}
				}
			}
		},
	})

	// --- ARM MPU driver obligations: the §4.4 driver-hardware agreement.
	for _, app := range apps {
		app := app
		r.Add(&verify.Spec{
			Component:  CompArmMPU,
			Name:       fmt.Sprintf("arm-mpu/new_regions/app=%d", app),
			SpecLines:  1,
			DomainSize: 4,
			Body: func(t *verify.T) {
				for _, off := range []uint32{0, 0x40, 0x123, 0x700} {
					t.Enumerate(1)
					drv := core.NewCortexMMPU(armv7m.NewMPUHardware())
					r0, r1, ok := drv.NewRegions(core.MaxRAMRegionNumber, poolStart+off, poolSize, app, 2*app, mpu.ReadWriteOnly)
					if !ok {
						continue
					}
					start, end, sok := core.AccessibleSpan[core.CortexMRegion](r0, r1)
					if !sok || end-start < app {
						t.Failf("covers request", "off=0x%x app=%d got %d", off, app, end-start)
						continue
					}
					regions := make([]core.CortexMRegion, drv.NumRegions())
					for i := range regions {
						regions[i] = drv.UnsetRegion(i)
					}
					regions[0], regions[1] = r0, r1
					if err := drv.ConfigureMPU(regions); err != nil {
						t.Failf("configure", "%v", err)
						continue
					}
					if !drv.HW.AccessibleUser(start, end-start, mpu.AccessWrite) {
						t.Failf("hardware admits span", "span [0x%x,0x%x)", start, end)
					}
					if drv.HW.AnyAccessibleUser(end, 4096, mpu.AccessWrite) {
						t.Failf("hardware bound", "admits bytes in [0x%x,+4096) past end", end)
					}
				}
			},
		})
	}
	r.Add(&verify.Spec{
		Component:  CompArmMPU,
		Name:       "arm-mpu/exact_region_bits",
		SpecLines:  8,
		DomainSize: uint64(len(verify.PowersOfTwo(32, 1<<16))),
		Body: func(t *verify.T) {
			drv := core.NewCortexMMPU(armv7m.NewMPUHardware())
			for _, size := range verify.PowersOfTwo(32, 1<<16) {
				t.Enumerate(1)
				reg, ok := drv.NewExactRegion(2, 0x0008_0000, size, mpu.ReadExecuteOnly)
				if 0x0008_0000%size != 0 {
					continue
				}
				if !ok {
					t.Failf("representable", "pow2 size %d rejected", size)
					continue
				}
				if !core.CanAccess(reg, 0x0008_0000, 0x0008_0000+size, mpu.ReadExecuteOnly) {
					t.Failf("bits decode", "size %d", size)
				}
			}
		},
	})
	var urDomain uint64
	for avail := uint32(256); avail <= 8192; avail += 128 {
		for want := uint32(1); want <= avail+512; want += 97 {
			urDomain++
		}
	}
	r.Add(&verify.Spec{
		Component:  CompArmMPU,
		Name:       "arm-mpu/update_regions_bound",
		SpecLines:  4,
		DomainSize: urDomain,
		Body: func(t *verify.T) {
			drv := core.NewCortexMMPU(armv7m.NewMPUHardware())
			r0, r1, ok := drv.NewRegions(1, poolStart, poolSize, 1024, 8192, mpu.ReadWriteOnly)
			if !ok {
				t.Failf("setup", "NewRegions failed")
				return
			}
			start, _, _ := core.AccessibleSpan[core.CortexMRegion](r0, r1)
			for avail := uint32(256); avail <= 8192; avail += 128 {
				for want := uint32(1); want <= avail+512; want += 97 {
					t.Enumerate(1)
					n0, n1, ok := drv.UpdateRegions(r0, r1, start, avail, want, mpu.ReadWriteOnly)
					if !ok {
						continue
					}
					_, end, _ := core.AccessibleSpan[core.CortexMRegion](n0, n1)
					if end-start > avail {
						t.Failf("respects available", "avail=%d got %d", avail, end-start)
					}
					if end-start < want {
						t.Failf("covers request", "want=%d got %d", want, end-start)
					}
				}
			}
		},
	})

	// --- ARMv8-M driver obligations: same allocator, base/limit MPU.
	for _, app := range apps {
		app := app
		r.Add(&verify.Spec{
			Component: CompArmMPU,
			Name:      fmt.Sprintf("arm-mpu/v8m/allocate/app=%d", app),
			SpecLines: 1,
			Body: func(t *verify.T) {
				drv := core.NewV8MMPU(armv8m.NewMPUHardware())
				a := core.NewAllocator[core.V8MRegion](drv, core.Config{})
				if err := a.AllocateAppMemory(poolStart, poolSize, app*2+4096, app, 1024, 0x0008_0000, 0x1000); err != nil {
					return
				}
				if err := a.CheckCorrespondence(); err != nil {
					t.Failf("correspondence", "%v", err)
				}
				if err := a.ConfigureMPU(); err != nil {
					t.Failf("configure", "%v", err)
					return
				}
				b := a.Breaks()
				if !drv.HW.AccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), mpu.AccessWrite) {
					t.Failf("hardware admits span", "[memoryStart, appBreak) not fully writable")
				}
				if drv.HW.AnyAccessibleUser(b.KernelBreak(), b.MemoryEnd()-b.KernelBreak(), mpu.AccessWrite) {
					t.Failf("grant protected", "bytes in [kernelBreak, memoryEnd) writable")
				}
			},
		})
	}

	// --- RISC-V MPU driver obligations, per chip.
	for _, chip := range riscv.Chips {
		chip := chip
		for _, app := range apps {
			app := app
			r.Add(&verify.Spec{
				Component: CompRiscvMPU,
				Name:      fmt.Sprintf("riscv-mpu/%s/allocate/app=%d", chip.Name, app),
				SpecLines: 1,
				Body: func(t *verify.T) {
					drv := core.NewPMPMPU(riscv.NewPMP(chip))
					a := core.NewAllocator[core.PMPRegion](drv, core.Config{})
					if err := a.AllocateAppMemory(0x8000_0000, 0x8_0000, app*2+4096, app, 1024, 0x2000_0000, 0x1000); err != nil {
						return
					}
					if err := a.CheckCorrespondence(); err != nil {
						t.Failf("correspondence", "%v", err)
					}
					if err := a.ConfigureMPU(); err != nil {
						t.Failf("configure", "%v", err)
						return
					}
					b := a.Breaks()
					if !drv.HW.AccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), mpu.AccessWrite) {
						t.Failf("hardware admits span", "[memoryStart, appBreak) not fully writable")
					}
					if drv.HW.AnyAccessibleUser(b.KernelBreak(), b.MemoryEnd()-b.KernelBreak(), mpu.AccessWrite) {
						t.Failf("grant protected", "bytes in [kernelBreak, memoryEnd) writable")
					}
				},
			})
		}
	}

	// --- Flux-Std: helper obligations and trusted lemmas.
	r.Add(&verify.Spec{
		Component:  CompFluxStd,
		Name:       "flux-std/align_up",
		SpecLines:  3,
		DomainSize: uint64(len(verify.PowersOfTwo(1, 1<<16))) * uint64(len(verify.Range(0, 1<<17, 997))),
		Body: func(t *verify.T) {
			for _, align := range verify.PowersOfTwo(1, 1<<16) {
				for _, v := range verify.Range(0, 1<<17, 997) {
					t.Enumerate(1)
					if !verify.LemmaAlignUpBounds(v, align) {
						t.Failf("align bounds", "v=%d align=%d", v, align)
					}
				}
			}
		},
	})
	r.Add(&verify.Spec{
		Component:  CompFluxStd,
		Name:       "flux-std/closest_pow2",
		SpecLines:  2,
		DomainSize: uint64(len(verify.Range(1, 1<<20, 1237))),
		Body: func(t *verify.T) {
			for _, n := range verify.Range(1, 1<<20, 1237) {
				t.Enumerate(1)
				p := verify.ClosestPowerOfTwo(n)
				if !verify.IsPow2(p) || p < n || (p > 1 && p/2 >= n) {
					t.Failf("minimal pow2", "n=%d p=%d", n, p)
				}
			}
		},
	})
	// --- DMA: the §4.6 safe-cell obligation — under any interleaving
	// the cell never releases a buffer mid-transfer.
	r.Add(&verify.Spec{
		Component:  CompKernel,
		Name:       "kernel/dma_cell_no_tearing",
		SpecLines:  6,
		DomainSize: 32,
		Body: func(t *verify.T) {
			for steps := 1; steps <= 32 && !t.Stopped(); steps++ {
				t.Enumerate(1)
				mem := physmem.NewMemory()
				if _, err := mem.Map("ram", 0x2000_0000, 0x1000); err != nil {
					t.Failf("setup", "%v", err)
					return
				}
				e := dma.NewEngine(mem)
				var cell dma.Cell
				w, err := cell.Place(dma.Buffer{Addr: 0x2000_0100, Len: 32})
				if err != nil {
					t.Failf("place", "%v", err)
					return
				}
				if err := e.Configure(w, 0x77); err != nil {
					t.Failf("configure", "%v", err)
					return
				}
				for done := uint32(0); done < 32; done += uint32(steps) {
					if err := e.Advance(uint64(steps)); err != nil {
						t.Failf("advance", "%v", err)
						return
					}
					got, err := cell.Completed()
					if err != nil {
						continue // still running: correct refusal
					}
					for i := uint32(0); i < got.Len; i++ {
						b, _ := mem.LoadByte(got.Addr + i)
						if b != 0x77 {
							t.Failf("no tearing", "steps=%d byte %d = 0x%02x", steps, i, b)
							return
						}
					}
					break
				}
			}
		},
	})
	r.Add(&verify.Spec{Component: CompFluxStd, Name: "flux-std/lemma_pow2_octet", SpecLines: 2, Trust: verify.TrustedLemma})
	r.Add(&verify.Spec{Component: CompFluxStd, Name: "flux-std/lemma_subregion_cover", SpecLines: 2, Trust: verify.TrustedLemma})
	r.Add(&verify.Spec{Component: CompFluxStd, Name: "flux-std/ptr_wrappers", SpecLines: 4, Trust: verify.TrustedGhost})

	return r
}

// BuildMonolithic registers the baseline-abstraction obligations. The
// entangled allocate_app_mem_region postcondition dominates, as in the
// paper.
func BuildMonolithic(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	apps := appSizeDomain(sc.AppSizes * 2)

	// THE dominating obligation: the grant-overlap postcondition over
	// the entangled (alignment × appSize × kernelSize × minSize) space.
	r.Add(&verify.Spec{
		Component:  CompMonolithic,
		Name:       "monolithic/allocate_app_mem_region",
		SpecLines:  18,
		DomainSize: uint64(sc.Align*8) * uint64(len(apps)) * uint64(len(kernelSizes)) * 3,
		Body: func(t *verify.T) {
			drv := monolithic.New(armv7m.NewMPUHardware())
			for a := 0; a < sc.Align*8; a++ {
				unalloc := poolStart + uint32(a)*0x20
				for _, app := range apps {
					for _, ks := range kernelSizes {
						for _, minExtra := range []uint32{0, 700, 4096} {
							t.Enumerate(1)
							var cfg monolithic.MpuConfig
							start, size, ok := drv.AllocateAppMemRegion(unalloc, 0x10_0000, app+ks+minExtra, app, ks, &cfg)
							if !ok {
								continue
							}
							kb := start + size - ks
							end := cfg.SubregsEnabledEnd()
							if end > kb {
								t.Failf("no grant overlap", "unalloc=0x%x app=%d ks=%d: end=0x%x > kb=0x%x", unalloc, app, ks, end, kb)
							}
							if end < start+app {
								t.Failf("covers request", "app=%d end=0x%x", app, end)
							}
							if start < unalloc {
								t.Failf("in pool", "start=0x%x", start)
							}
							if t.Stopped() {
								return
							}
						}
					}
				}
			}
		},
	})

	// update_app_mem_region obligations, one per (app size, grant size).
	for _, app := range apps {
		for _, ks := range kernelSizes {
			app, ks := app, ks
			r.Add(&verify.Spec{
				Component:  CompMonolithic,
				Name:       fmt.Sprintf("monolithic/update_app_mem_region/app=%d/k=%d", app, ks),
				SpecLines:  1,
				DomainSize: 5,
				Body: func(t *verify.T) {
					drv := monolithic.New(armv7m.NewMPUHardware())
					var cfg monolithic.MpuConfig
					start, size, ok := drv.AllocateAppMemRegion(poolStart, 0x10_0000, app+ks+4096, app, ks, &cfg)
					if !ok {
						return
					}
					kb := start + size - ks
					for _, nb := range []uint32{start + 1, start + app, kb, kb + 64, start - 32} {
						t.Enumerate(1)
						err := drv.UpdateAppMemRegion(nb, kb, &cfg)
						legal := nb > start && nb <= kb
						if err == nil && !legal {
							t.Failf("validation", "illegal break 0x%x accepted", nb)
						}
						if err == nil && cfg.SubregsEnabledEnd() > kb {
							t.Failf("no grant overlap", "nb=0x%x", nb)
						}
					}
				},
			})
		}
	}

	// Flash-region obligations.
	for i, size := range []uint32{64, 96, 128, 512, 1024, 4096} {
		size := size
		r.Add(&verify.Spec{
			Component: CompMonolithic,
			Name:      fmt.Sprintf("monolithic/flash_region/%d", i),
			SpecLines: 1,
			Body: func(t *verify.T) {
				drv := monolithic.New(armv7m.NewMPUHardware())
				var cfg monolithic.MpuConfig
				ok := drv.AllocateFlashRegion(0x0008_0000, size, &cfg)
				if !ok {
					t.Failf("representable", "size=%d rejected", size)
				}
			},
		})
	}

	return r
}

// BuildInterrupts registers the fluxarm round-trip obligations, one per
// fixture (the Figure 12 "Interrupts" row).
func BuildInterrupts(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	for i, fx := range fluxarm.Fixtures(sc.Seeds) {
		fx := fx
		r.Add(&verify.Spec{
			Component: CompFluxArm,
			Name:      fmt.Sprintf("fluxarm/kernel_to_kernel/%03d/exc=%d", i, fx.Exception),
			SpecLines: 20,
			Body: func(t *verify.T) {
				if err := fluxarm.CheckRoundTrip(fx, false); err != nil {
					t.Failf("cpu_state_correct", "%v", err)
				}
			},
		})
	}
	// The process-syscall direction: one obligation per register pattern.
	for i, regs := range [][8]uint32{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{0xFFFF_FFFF, 0xAAAA_AAAA, 0x5555_5555, 0xDEAD_BEEF, 0, 1, 0x8000_0000, 42},
	} {
		i, regs := i, regs
		r.Add(&verify.Spec{
			Component: CompFluxArm,
			Name:      fmt.Sprintf("fluxarm/process_syscall/%d", i),
			SpecLines: 12,
			Body: func(t *verify.T) {
				a, err := fluxarm.NewFixtureArm7(fluxarm.Fixture{Seed: int64(i)}, false)
				if err != nil {
					t.Failf("fixture", "%v", err)
					return
				}
				cpu := &a.M.CPU
				cpu.Mode = armv7m.ModeThread
				cpu.Control = armv7m.ControlNPriv | armv7m.ControlSPSel
				copy(cpu.R[4:12], regs[:])
				cpu.PSP = a.ProcEnd - 128
				if err := a.ControlFlowProcessSyscall(); err != nil {
					t.Failf("syscall round trip", "%v", err)
				}
			},
		})
	}
	// The manually-translated instruction semantics are trusted, as in
	// the paper's accounting.
	r.Add(&verify.Spec{Component: CompFluxArm, Name: "fluxarm/instruction_semantics", SpecLines: 40, Trust: verify.TrustedOutOfScope})
	return r
}

// BuildEndToEnd registers whole-kernel obligations (boot, load, run,
// fault) that sit above the per-function suites; they are part of the
// Figure 10 effort table but not of the Figure 12 per-suite timings,
// which measure function-level verification as Flux does.
func BuildEndToEnd(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	_ = sc
	for _, chip := range riscv.Chips {
		chip := chip
		r.Add(&verify.Spec{
			Component: CompRiscvMPU,
			Name:      fmt.Sprintf("riscv-mpu/%s/kernel_end_to_end", chip.Name),
			SpecLines: 4,
			Body: func(t *verify.T) {
				k, err := rvkernel.New(chip)
				if err != nil {
					t.Failf("boot", "%v", err)
					return
				}
				p, err := k.LoadProcess(rvkernel.ReleaseSubset()[0])
				if err != nil {
					t.Failf("load", "%v", err)
					return
				}
				if _, err := k.Run(1000); err != nil {
					t.Failf("run", "%v", err)
					return
				}
				if k.Output(p) != "Hello World!\r\n" {
					t.Failf("completion", "output=%q", k.Output(p))
				}
			},
		})
	}

	return r
}

// BuildAll merges every registry for the Figure 10 effort table.
func BuildAll(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	for _, sub := range []*verify.Registry{BuildGranular(sc), BuildMonolithic(sc), BuildInterrupts(sc), BuildEndToEnd(sc), BuildSupervision(sc), BuildAccessMap(sc), BuildBlockCache(sc), BuildCampaign(sc)} {
		for _, s := range sub.Specs() {
			r.Add(s)
		}
	}
	return r
}
