package main

import "ticktock/internal/specs"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

const unitCount = "count"

// endToEndMetrics are reported by every untraced run. All are host wall
// time or host memory.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_ms.p50", "ms"},
	{"unit_ms.p99", "ms"},
	{"peak_rss_mb", "MB"},
}

// fig11Methods are the kernel methods Figure 11 counts, as the ARM
// kernel's Stats names them.
var fig11Methods = []string{
	"create", "setup_mpu", "brk", "allocate_grant",
	"build_readonly_buffer", "build_readwrite_buffer",
}

// verifyComponents maps the checker's components to metric slugs.
var verifyComponents = []struct{ name, slug string }{
	{specs.CompKernel, "kernel"},
	{specs.CompArmMPU, "arm-mpu"},
	{specs.CompRiscvMPU, "riscv-mpu"},
	{specs.CompFluxStd, "flux-std"},
	{specs.CompMonolithic, "monolithic"},
	{specs.CompFluxArm, "fluxarm"},
	{specs.CompSupervision, "supervision"},
	{specs.CompAccessMap, "accessmap"},
	{specs.CompBlockCache, "blockcache"},
	{specs.CompCampaign, "campaign"},
}

// outcomeCounts names the fault-injection outcome tallies.
var outcomeCounts = []string{"injected", "detected", "masked", "benign", "skipped"}

// perLayer are reported by every traced run; a layer a workload does
// not reach reads 0. Seconds are per traced pass. Counts are exact and
// repeat bit for bit, except campaign.steals, which depends on
// scheduling; names with sim_ are simulated cycles, everything else is
// host time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"kernel.boot.s", "s"}, {"kernel.boot.calls", unitCount}, {"kernel.boot.alloc_mb", "MB"},
		{"kernel.load.s", "s"}, {"kernel.load.calls", unitCount},
		{"step.s", "s"}, {"step.quanta", unitCount}, {"step.sim_cycles", "cycles"},
		{"step.sim_mcycles_per_s", "Mcycles/s"},
	}
	for _, m := range fig11Methods {
		defs = append(defs, metricDef{"kernel." + m + ".count", unitCount})
	}
	defs = append(defs,
		metricDef{"blockcache.hits", unitCount}, metricDef{"blockcache.misses", unitCount},
		metricDef{"blockcache.slow_steps", unitCount},
		metricDef{"blockcache.hint_hits", unitCount}, metricDef{"blockcache.hint_misses", unitCount},
		metricDef{"blockcache.hit_ratio", "ratio"}, metricDef{"blockcache.hint_hit_ratio", "ratio"},
		metricDef{"accessmap.builds", unitCount}, metricDef{"recheck.s", "s"},
	)
	for _, c := range verifyComponents {
		s := "verify." + c.slug
		defs = append(defs, metricDef{s + ".s", "s"}, metricDef{s + ".states", unitCount},
			metricDef{s + ".states_per_s", "states/s"})
	}
	defs = append(defs,
		metricDef{"campaign.unit.s", "s"}, metricDef{"campaign.overhead.s", "s"},
		metricDef{"campaign.checkpoints", unitCount}, metricDef{"campaign.steals", unitCount},
	)
	for _, o := range outcomeCounts {
		defs = append(defs, metricDef{"faultinject." + o, unitCount})
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_frac", "ratio"}, metricDef{"runtime.busy_cpu_s", "s"},
		metricDef{"runtime.alloc_mb_per_unit", "MB"},
		metricDef{"trace.coverage", "ratio"}, metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.untraced_wall_s", "s"},
		metricDef{"trace.units", unitCount},
	)
}
