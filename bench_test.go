package ticktock

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (§6). Each benchmark reports the simulated metric the paper
// tabulates via b.ReportMetric, so `go test -bench=. -benchmem` prints the
// same rows/series:
//
//	Figure 10  -> BenchmarkFig10_ProofEffort           (obligations/specs per component)
//	Figure 11  -> BenchmarkFig11_*                     (sim-cycles/op per method, both kernels)
//	Figure 12  -> BenchmarkFig12_*                     (checker time per obligation suite)
//	§6.1 table -> BenchmarkDifferentialCampaign        (21 tests, 5 differing)
//	§6.2 table -> BenchmarkMemoryFootprint_*           (total/accessible/grant/unused bytes)

import (
	"fmt"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/campaign"
	"ticktock/internal/cyclebench"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/membench"
	"ticktock/internal/metrics"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
	"ticktock/internal/specs"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// fig11 runs the Figure 11 workload once per benchmark iteration for one
// flavour and reports the mean simulated cycles of one method.
func fig11(b *testing.B, fl kernel.Flavour, method string) {
	b.Helper()
	var mean float64
	for i := 0; i < b.N; i++ {
		stats, err := cyclebench.RunFlavour(fl)
		if err != nil {
			b.Fatal(err)
		}
		st := stats.Get(method)
		if st.Count == 0 {
			b.Fatalf("method %s never exercised", method)
		}
		mean = st.Mean()
	}
	b.ReportMetric(mean, "sim-cycles/op")
}

func BenchmarkFig11_AllocateGrant_TickTock(b *testing.B) {
	fig11(b, kernel.FlavourTickTock, "allocate_grant")
}
func BenchmarkFig11_AllocateGrant_Tock(b *testing.B) {
	fig11(b, kernel.FlavourTock, "allocate_grant")
}
func BenchmarkFig11_Brk_TickTock(b *testing.B) { fig11(b, kernel.FlavourTickTock, "brk") }
func BenchmarkFig11_Brk_Tock(b *testing.B)     { fig11(b, kernel.FlavourTock, "brk") }
func BenchmarkFig11_BuildReadOnlyBuffer_TickTock(b *testing.B) {
	fig11(b, kernel.FlavourTickTock, "build_readonly_buffer")
}
func BenchmarkFig11_BuildReadOnlyBuffer_Tock(b *testing.B) {
	fig11(b, kernel.FlavourTock, "build_readonly_buffer")
}
func BenchmarkFig11_BuildReadWriteBuffer_TickTock(b *testing.B) {
	fig11(b, kernel.FlavourTickTock, "build_readwrite_buffer")
}
func BenchmarkFig11_BuildReadWriteBuffer_Tock(b *testing.B) {
	fig11(b, kernel.FlavourTock, "build_readwrite_buffer")
}
func BenchmarkFig11_Create_TickTock(b *testing.B) { fig11(b, kernel.FlavourTickTock, "create") }
func BenchmarkFig11_Create_Tock(b *testing.B)     { fig11(b, kernel.FlavourTock, "create") }
func BenchmarkFig11_SetupMPU_TickTock(b *testing.B) {
	fig11(b, kernel.FlavourTickTock, "setup_mpu")
}
func BenchmarkFig11_SetupMPU_Tock(b *testing.B) { fig11(b, kernel.FlavourTock, "setup_mpu") }

func BenchmarkFig12_Monolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := specs.BuildMonolithic(specs.QuickScale).Run()
		if !rep.OK() {
			b.Fatal("obligations failed")
		}
		s := rep.Stats()
		b.ReportMetric(float64(s.Fns), "obligations")
		b.ReportMetric(float64(s.Total.Microseconds()), "check-us")
		b.ReportMetric(float64(s.Max.Microseconds()), "max-us")
	}
}

func BenchmarkFig12_Granular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := specs.BuildGranular(specs.QuickScale).Run()
		if !rep.OK() {
			b.Fatal("obligations failed")
		}
		s := rep.Stats()
		b.ReportMetric(float64(s.Fns), "obligations")
		b.ReportMetric(float64(s.Total.Microseconds()), "check-us")
		b.ReportMetric(float64(s.Max.Microseconds()), "max-us")
	}
}

func BenchmarkFig12_Interrupts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := specs.BuildInterrupts(specs.QuickScale).Run()
		if !rep.OK() {
			b.Fatal("obligations failed")
		}
		s := rep.Stats()
		b.ReportMetric(float64(s.Fns), "obligations")
		b.ReportMetric(float64(s.Total.Microseconds()), "check-us")
		b.ReportMetric(float64(s.Max.Microseconds()), "max-us")
	}
}

func BenchmarkFig10_ProofEffort(b *testing.B) {
	var fns, lines int
	for i := 0; i < b.N; i++ {
		fns, lines = 0, 0
		for _, row := range ProofEffort() {
			fns += row.Fns
			lines += row.SpecLines
		}
	}
	b.ReportMetric(float64(fns), "obligations")
	b.ReportMetric(float64(lines), "spec-lines")
}

func BenchmarkDifferentialCampaign(b *testing.B) {
	var s difftest.Summary
	for i := 0; i < b.N; i++ {
		rows := difftest.RunAllConfig(difftest.Config{})
		s = difftest.Summarize(rows)
		if s.Unexpected != 0 || s.Errored != 0 {
			b.Fatalf("unexpected diffs: %+v", s)
		}
	}
	b.ReportMetric(float64(s.Total), "tests")
	b.ReportMetric(float64(s.Differing), "differing")
}

func benchFootprint(b *testing.B, fl kernel.Flavour, padding uint32) {
	b.Helper()
	var r membench.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = membench.Run(fl, padding)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Total), "total-bytes")
	b.ReportMetric(float64(r.Accessible), "accessible-bytes")
	b.ReportMetric(float64(r.Grant), "grant-bytes")
	b.ReportMetric(float64(r.Unused), "unused-bytes")
}

func BenchmarkMemoryFootprint_TickTock(b *testing.B) {
	benchFootprint(b, kernel.FlavourTickTock, 0)
}
func BenchmarkMemoryFootprint_Tock(b *testing.B) {
	benchFootprint(b, kernel.FlavourTock, 0)
}
func BenchmarkMemoryFootprint_TickTockPadded(b *testing.B) {
	tock, err := membench.Run(kernel.FlavourTock, 0)
	if err != nil {
		b.Fatal(err)
	}
	tt, err := membench.Run(kernel.FlavourTickTock, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchFootprint(b, kernel.FlavourTickTock, tock.Total-tt.Total)
}

// Ablation: the verification-guided simplifications the paper credits for
// TickTock's speedups, measured in isolation.

// BenchmarkAblation_GrantWithMPURecompute isolates the allocate_grant
// difference: the monolithic path re-runs the region update and MPU write,
// the granular path moves one pointer.
func BenchmarkAblation_GrantWithMPURecompute(b *testing.B) {
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		fl := fl
		b.Run(fl.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				k, err := kernel.New(kernel.Options{Flavour: fl})
				if err != nil {
					b.Fatal(err)
				}
				p, err := k.LoadProcess(grantHammer())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := k.Run(2000); err != nil {
					b.Fatal(err)
				}
				_ = p
				mean = k.Stats.Get("allocate_grant").Mean()
			}
			b.ReportMetric(mean, "sim-cycles/op")
		})
	}
}

// BenchmarkAblation_ContextSwitch measures the full switch cost (setup_mpu
// plus register restore) per quantum.
func BenchmarkAblation_ContextSwitch(b *testing.B) {
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		fl := fl
		b.Run(fl.String(), func(b *testing.B) {
			var perSwitch float64
			for i := 0; i < b.N; i++ {
				k, err := kernel.New(kernel.Options{Flavour: fl, Timeslice: 200})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := k.LoadProcess(spinner()); err != nil {
					b.Fatal(err)
				}
				before := k.Meter().Cycles()
				if _, err := k.Run(50); err != nil {
					b.Fatal(err)
				}
				perSwitch = float64(k.Meter().Cycles()-before) / float64(k.Switches)
			}
			b.ReportMetric(perSwitch, "sim-cycles/switch")
		})
	}
}

// grantHammer allocates many small grants.
func grantHammer() kernel.App {
	return kernel.App{
		Name: "granthammer", MinRAM: 16384, InitRAM: 2048, Stack: 1024, KernelHint: 4096,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			for i := 0; i < 16; i++ {
				apps.Syscall(a, kernel.SVCCommand, kernel.DriverGrant, 0, 32, 0)
			}
			apps.Exit(a, 0)
			return a.MustAssemble()
		},
	}
}

// spinner loops forever, forcing a context switch per timeslice.
func spinner() kernel.App {
	return kernel.App{
		Name: "spinner", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Label("loop")
			a.Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1})
			a.BTo(armv7m.AL, "loop")
			return a.MustAssemble()
		},
	}
}

// BenchmarkAblation_TraceOverhead guards the tracer's zero-simulated-cost
// guarantee behind the Figure 11/12 numbers: the `create` cycle stats and
// the per-switch cycle cost must be bit-identical with the tracer
// attached and detached — tracing observes the meter, never charges it.
// The reported metric is the (wall-clock-free) simulated-cycle delta,
// which must stay 0.
func BenchmarkAblation_TraceOverhead(b *testing.B) {
	run := func(tr *trace.Tracer) (uint64, float64, uint64) {
		k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock, Timeslice: 200, Observe: kcore.Observe{Trace: tr}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.LoadProcess(spinner()); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(50); err != nil {
			b.Fatal(err)
		}
		return k.Meter().Cycles(), k.Stats.Get("create").Mean(), k.Switches
	}
	var delta uint64
	for i := 0; i < b.N; i++ {
		plainCycles, plainCreate, plainSwitches := run(nil)
		tr := trace.New(1 << 16)
		tracedCycles, tracedCreate, tracedSwitches := run(tr)
		if tr.Emitted() == 0 {
			b.Fatal("tracer attached but no events emitted")
		}
		if plainCreate != tracedCreate || plainSwitches != tracedSwitches {
			b.Fatalf("tracing changed the workload: create %v->%v, switches %d->%d",
				plainCreate, tracedCreate, plainSwitches, tracedSwitches)
		}
		if tracedCycles > plainCycles {
			delta = tracedCycles - plainCycles
		} else {
			delta = plainCycles - tracedCycles
		}
		if delta != 0 {
			b.Fatalf("tracing cost %d simulated cycles (traced=%d untraced=%d)", delta, tracedCycles, plainCycles)
		}
	}
	b.ReportMetric(float64(delta), "sim-cycle-delta")
}

// BenchmarkAblation_MetricsOverhead guards the metrics subsystem's
// zero-simulated-cost guarantee: with a registry attached the run must
// reach the identical meter reading, `create` cycle stats and switch
// count as an uninstrumented run — instrumentation observes the cycle
// meter, never charges it. On top of the trace guarantee this also
// checks the folded-stack invariant: the profile's stacks must sum to
// exactly the instrumented run's total simulated cycles.
func BenchmarkAblation_MetricsOverhead(b *testing.B) {
	run := func(reg *metrics.Registry) (*kernel.Kernel, uint64, float64, uint64) {
		k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock, Timeslice: 200, Observe: kcore.Observe{Metrics: reg}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.LoadProcess(spinner()); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(50); err != nil {
			b.Fatal(err)
		}
		return k, k.Meter().Cycles(), k.Stats.Get("create").Mean(), k.Switches
	}
	var delta uint64
	for i := 0; i < b.N; i++ {
		_, plainCycles, plainCreate, plainSwitches := run(nil)
		reg := metrics.NewRegistry()
		k, meteredCycles, meteredCreate, meteredSwitches := run(reg)
		if reg.Counter("ticktock_context_switches_total",
			metrics.L("flavour", kernel.FlavourTickTock.String())).Value() != meteredSwitches {
			b.Fatal("registry attached but switches not counted")
		}
		if plainCreate != meteredCreate || plainSwitches != meteredSwitches {
			b.Fatalf("metrics changed the workload: create %v->%v, switches %d->%d",
				plainCreate, meteredCreate, plainSwitches, meteredSwitches)
		}
		if meteredCycles > plainCycles {
			delta = meteredCycles - plainCycles
		} else {
			delta = plainCycles - meteredCycles
		}
		if delta != 0 {
			b.Fatalf("metrics cost %d simulated cycles (metered=%d unmetered=%d)", delta, meteredCycles, plainCycles)
		}
		if got := k.Profile().Total(); got != meteredCycles {
			b.Fatalf("folded-stack invariant broken: profile total %d, meter %d", got, meteredCycles)
		}
	}
	b.ReportMetric(float64(delta), "sim-cycle-delta")
}

// BenchmarkAblation_FlightRecOverhead guards the flight recorder's
// zero-simulated-cost guarantee: with a recorder attached — dirty-page
// tracking on every store, a full snapshot per quantum — the run must
// reach the identical meter reading, `create` cycle stats and switch
// count as an unrecorded run. Recording observes the cycle meter, never
// charges it. The reported metric is the simulated-cycle delta, which
// must stay 0.
func BenchmarkAblation_FlightRecOverhead(b *testing.B) {
	run := func(rec *flightrec.Recorder) (uint64, float64, uint64) {
		k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock, Timeslice: 200, Observe: kcore.Observe{FlightRec: rec}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.LoadProcess(spinner()); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(50); err != nil {
			b.Fatal(err)
		}
		return k.Meter().Cycles(), k.Stats.Get("create").Mean(), k.Switches
	}
	var delta uint64
	for i := 0; i < b.N; i++ {
		plainCycles, plainCreate, plainSwitches := run(nil)
		rec := flightrec.NewRecorder("ablation")
		recCycles, recCreate, recSwitches := run(rec)
		if rec.Snapshots() == 0 {
			b.Fatal("recorder attached but no snapshots taken")
		}
		if plainCreate != recCreate || plainSwitches != recSwitches {
			b.Fatalf("recording changed the workload: create %v->%v, switches %d->%d",
				plainCreate, recCreate, plainSwitches, recSwitches)
		}
		if recCycles > plainCycles {
			delta = recCycles - plainCycles
		} else {
			delta = plainCycles - recCycles
		}
		if delta != 0 {
			b.Fatalf("recording cost %d simulated cycles (recorded=%d unrecorded=%d)", delta, recCycles, plainCycles)
		}
	}
	b.ReportMetric(float64(delta), "sim-cycle-delta")
}

// BenchmarkAblation_TelemetryOverhead guards the live telemetry plane's
// house rule at both layers. Kernel layer: a plane-fed unit tracer must
// reach the identical meter reading, `create` cycle stats and switch
// count as an untraced run — telemetry observes the cycle meter, it
// never charges it. Campaign layer: a fully telemetered supervised
// campaign (observer, per-attempt tracers, streaming aggregation) must
// render a byte-identical report to the untelemetered run, and the
// plane must actually have seen the fleet (spans with nested kernel
// events, nonzero live series) so the guard cannot pass vacuously.
func BenchmarkAblation_TelemetryOverhead(b *testing.B) {
	run := func(tr *trace.Tracer) (uint64, float64, uint64) {
		k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock, Timeslice: 200, Observe: kcore.Observe{Trace: tr}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.LoadProcess(spinner()); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(50); err != nil {
			b.Fatal(err)
		}
		return k.Meter().Cycles(), k.Stats.Get("create").Mean(), k.Switches
	}
	cfg := faultinject.Config{Seed: 42, N: 4}
	sup := campaign.Config{Workers: 2}
	var delta uint64
	for i := 0; i < b.N; i++ {
		// Kernel layer: plane-fed tracer vs none.
		plainCycles, plainCreate, plainSwitches := run(nil)
		plane := telemetry.New()
		plane.CampaignStart("bench", 1, &campaign.Stats{Units: 1})
		plane.UnitStart(0, 0, false)
		plane.AttemptStart(0, 0, 1)
		tr := plane.UnitTracer(0)
		if tr == nil {
			b.Fatal("plane refused a tracer for an open unit")
		}
		tracedCycles, tracedCreate, tracedSwitches := run(tr)
		if tr.Emitted() == 0 {
			b.Fatal("plane-fed tracer attached but no events emitted")
		}
		if plainCreate != tracedCreate || plainSwitches != tracedSwitches {
			b.Fatalf("telemetry changed the workload: create %v->%v, switches %d->%d",
				plainCreate, tracedCreate, plainSwitches, tracedSwitches)
		}
		if tracedCycles > plainCycles {
			delta = tracedCycles - plainCycles
		} else {
			delta = plainCycles - tracedCycles
		}
		if delta != 0 {
			b.Fatalf("telemetry cost %d simulated cycles (traced=%d untraced=%d)", delta, tracedCycles, plainCycles)
		}

		// Campaign layer: telemetered report must be byte-identical.
		plainRep, _, err := faultinject.RunSupervised(cfg, sup, nil)
		if err != nil {
			b.Fatal(err)
		}
		telPlane := telemetry.New()
		telRep, _, err := faultinject.RunSupervised(cfg, sup, telPlane)
		if err != nil {
			b.Fatal(err)
		}
		if plainRep.Text() != telRep.Text() {
			b.Fatalf("telemetry changed the report:\nplain:\n%s\ntelemetered:\n%s", plainRep.Text(), telRep.Text())
		}
		tl := telPlane.Timeline()
		nested := false
		for _, sp := range tl.Spans {
			if len(sp.Kernel) > 0 {
				nested = true
				break
			}
		}
		if !nested {
			b.Fatal("vacuous guard: no kernel events nested under attempt spans")
		}
		if len(telPlane.Live().Snapshot().Counters) == 0 {
			b.Fatal("vacuous guard: live aggregate is empty after the campaign")
		}
	}
	b.ReportMetric(float64(delta), "sim-cycle-delta")
}

// BenchmarkAblation_UpcallDelivery measures the cost of delivering one
// callback (frame synthesis + return-stub round trip) versus a plain
// yield/wake.
func BenchmarkAblation_UpcallDelivery(b *testing.B) {
	var delivered float64
	for i := 0; i < b.N; i++ {
		k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock})
		if err != nil {
			b.Fatal(err)
		}
		p, err := k.LoadProcess(spinner())
		if err != nil {
			b.Fatal(err)
		}
		p.Upcalls[kernel.DriverAlarm] = kernel.Upcall{Fn: p.Entry, Userdata: 1}
		before := k.Meter().Cycles()
		for j := 0; j < 100; j++ {
			if !k.ScheduleUpcallForBench(p) {
				b.Fatal("schedule failed")
			}
		}
		delivered = float64(k.Meter().Cycles()-before) / 100
	}
	b.ReportMetric(delivered, "sim-cycles/upcall")
}

// BenchmarkAblation_IPCShareVsCopy compares hardware-mediated shared
// memory against kernel-mediated buffer copies for moving 64 bytes.
func BenchmarkAblation_IPCShareVsCopy(b *testing.B) {
	b.Run("kernel-copy", func(b *testing.B) {
		var per float64
		for i := 0; i < b.N; i++ {
			k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock})
			if err != nil {
				b.Fatal(err)
			}
			rx, err := k.LoadProcess(spinner())
			if err != nil {
				b.Fatal(err)
			}
			tx, err := k.LoadProcess(spinner())
			if err != nil {
				b.Fatal(err)
			}
			rxL, txL := rx.MM.Layout(), tx.MM.Layout()
			rx.AllowedRW[kernel.DriverIPC] = kernel.Buffer{Addr: rxL.MemoryStart + 1600, Len: 64}
			tx.AllowedRO[kernel.DriverIPC] = kernel.Buffer{Addr: txL.MemoryStart + 1600, Len: 64}
			before := k.Meter().Cycles()
			for j := 0; j < 50; j++ {
				if got := k.IPCCopyForBench(tx, uint32(rx.ID)); got != 64 {
					b.Fatalf("copy ret=%d", got)
				}
			}
			per = float64(k.Meter().Cycles()-before) / 50
		}
		b.ReportMetric(per, "sim-cycles/64B")
	})
	b.Run("hw-share", func(b *testing.B) {
		var per float64
		for i := 0; i < b.N; i++ {
			k, err := kernel.New(kernel.Options{Flavour: kernel.FlavourTickTock})
			if err != nil {
				b.Fatal(err)
			}
			svc, err := k.LoadProcess(spinner())
			if err != nil {
				b.Fatal(err)
			}
			cli, err := k.LoadProcess(spinner())
			if err != nil {
				b.Fatal(err)
			}
			l := svc.MM.Layout()
			before := k.Meter().Cycles()
			if err := cli.MM.ShareRegion(l.MemoryStart, l.AppBreak-l.MemoryStart, true); err != nil {
				b.Fatal(err)
			}
			// After the one-time mapping, transfers are plain user
			// loads/stores: 16 words per 64 bytes at Load+Store cycles.
			per = float64(k.Meter().Cycles() - before) // mapping cost, amortized
		}
		b.ReportMetric(per, "sim-cycles/map")
	})
}

// BenchmarkAblation_FaultInjectOverhead guards the fault-injection
// hooks' zero-simulated-cost contract, which the fault campaign's skip
// prediction rests on: a kernel with every FaultHook installed (plus
// the machine-level LoadFault probe) but injecting nothing must run the
// exact same simulated cycles, context switches and run signature as a
// kernel with no hooks at all. The workload is malloc_test01 on the ARM
// and the RISC-V port: of the campaign's shared release apps, it is the
// one that reaches all four points, syscalls and a checked load.
func BenchmarkAblation_FaultInjectOverhead(b *testing.B) {
	// calls counts QuantumStart, SyscallArgs, SyscallRet and LoadFault
	// calls; a nil calls runs without hooks.
	armRun := func(calls *[4]uint64) hookProbe {
		var tc apps.TestCase
		for _, c := range apps.All() {
			if c.Name == "malloc_test01" {
				tc = c
			}
		}
		opts := kernel.Options{Flavour: kernel.FlavourTickTock}
		if calls != nil {
			opts.Hooks = countingHooks[*kernel.Process, uint8](calls)
		}
		k, err := kernel.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if calls != nil {
			k.Board.Machine.LoadFault = func(uint32) error { calls[3]++; return nil }
		}
		for _, app := range tc.Apps {
			if _, err := k.LoadProcess(app); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := k.Run(difftest.DefaultQuanta); err != nil {
			b.Fatal(err)
		}
		return newHookProbe(k.Meter().Cycles(), k.Counters(), k.Records())
	}
	rvRun := func(calls *[4]uint64) hookProbe {
		var app rvkernel.App
		for _, a := range rvkernel.ReleaseSubset() {
			if a.Name == "malloc_test01" {
				app = a
			}
		}
		k, err := rvkernel.New(riscv.Chips[0])
		if err != nil {
			b.Fatal(err)
		}
		if calls != nil {
			k.Hooks = countingHooks[*rvkernel.Process, uint32](calls)
			k.Machine.LoadFault = func(uint32) error { calls[3]++; return nil }
		}
		if _, err := k.LoadProcess(app); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(2000); err != nil {
			b.Fatal(err)
		}
		return newHookProbe(k.Meter().Cycles(), k.Counters(), k.Records())
	}
	for _, port := range []struct {
		name string
		run  func(calls *[4]uint64) hookProbe
	}{{"armv7m", armRun}, {"rv32", rvRun}} {
		b.Run(port.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var calls [4]uint64
				plain, hooked := port.run(nil), port.run(&calls)
				for j, name := range []string{"QuantumStart", "SyscallArgs", "SyscallRet", "LoadFault"} {
					if calls[j] == 0 {
						b.Fatalf("%s hook installed but never called; the probe measured nothing", name)
					}
				}
				if hooked != plain {
					b.Fatalf("idle fault hooks changed the run:\nhooked %+v\nplain  %+v", hooked, plain)
				}
			}
			b.ReportMetric(0, "sim-cycle-delta")
		})
	}
}

// hookProbe is what the fault-hook ablation compares: simulated cycles,
// and the run signature a fault campaign classifies by (the kernel's
// counters, context switches among them, and each process's output,
// state and restarts).
type hookProbe struct {
	cycles   uint64
	counters kcore.Counters
	procs    string
}

func newHookProbe(cycles uint64, c kcore.Counters, procs []*kcore.Process) hookProbe {
	var s strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&s, "[%s] %q %v restarts=%d; ", p.Name, p.Output(), p.State, p.Restarts)
	}
	return hookProbe{cycles, c, s.String()}
}

// countingHooks returns fault hooks that change nothing and count their
// calls into calls[0:3].
func countingHooks[P any, C kcore.Class](calls *[4]uint64) kcore.FaultHooks[P, C] {
	return kcore.FaultHooks[P, C]{
		QuantumStart: func(P) { calls[0]++ },
		SyscallArgs:  func(_ P, _ C, args [4]uint32) [4]uint32 { calls[1]++; return args },
		SyscallRet:   func(_ P, _ C, ret uint32) uint32 { calls[2]++; return ret },
	}
}
