package kcore

import (
	"fmt"

	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

// counters embeds Counters under an unexported name, so a port's kernel
// gains the counts as fields but not the struct itself.
type counters = Counters

// Kernel is the port-neutral kernel: process table, scheduler, fault
// supervision and instrumentation. A port embeds it and drives it
// through the Port it was built with.
type Kernel[P Proc, C Class] struct {
	// Procs is the process table in load order.
	Procs []P

	// LEDs is the simulated LED bank state.
	LEDs [4]bool

	counters

	// Metrics is the attached registry (nil when metrics are off). A
	// single kernel runs single-threaded, so the cached instrument
	// handles below need no locking; the registry itself is
	// goroutine-safe and may be shared across campaign kernels.
	Metrics *metrics.Registry

	c      Config[P, C]
	tracer *trace.Tracer
	rec    *flightrec.Recorder

	// prof attributes every simulated cycle to a folded stack
	// (flavour;process;window). Non-nil exactly when Metrics is.
	prof        *metrics.Profile
	flavour     string
	mSyscalls   []*metrics.Counter
	mSyscallCyc []*metrics.Histogram
	mSwitches   *metrics.Counter
	mFaults     *metrics.Counter
	mRestarts   *metrics.Counter
	mWatchdog   *metrics.Counter
	mQuarantine *metrics.Counter
	mMPU        *metrics.Histogram
}

// New returns a kernel over the port cfg describes.
func New[P Proc, C Class](cfg Config[P, C]) Kernel[P, C] {
	return Kernel[P, C]{c: cfg}
}

// Attach wires observers into the kernel. Call it once, before
// LoadProcess, so flash images and initial RAM writes land in the flight
// recorder's dirty-page picture and the port's loader picks up its
// metric handles.
func (k *Kernel[P, C]) Attach(o Observe) {
	if reg := o.Metrics; reg != nil {
		k.Metrics = reg
		k.prof = metrics.NewProfile()
		k.flavour = k.c.Port.Flavour()
		fl := metrics.L("flavour", k.flavour)
		k.mSyscalls = make([]*metrics.Counter, k.c.Classes)
		k.mSyscallCyc = make([]*metrics.Histogram, k.c.Classes)
		for i := range k.mSyscalls {
			cl := metrics.L("class", classNames[i])
			k.mSyscalls[i] = reg.Counter("ticktock_syscalls_total", fl, cl)
			k.mSyscallCyc[i] = reg.Histogram("ticktock_syscall_cycles", fl, cl)
		}
		k.mSwitches = reg.Counter("ticktock_context_switches_total", fl)
		k.mFaults = reg.Counter("ticktock_faults_total", fl)
		k.mRestarts = reg.Counter("ticktock_restarts_total", fl)
		k.mWatchdog = reg.Counter("ticktock_watchdog_fires_total", fl)
		k.mQuarantine = reg.Counter("ticktock_quarantines_total", fl)
		k.mMPU = reg.Histogram("ticktock_mpu_reconfigure_cycles", fl)
	}
	if o.Trace != nil {
		k.tracer = o.Trace
		k.tracer.AttachMetrics(o.Metrics)
	}
	if o.FlightRec != nil {
		k.rec = o.FlightRec
		k.rec.AttachMemory(k.c.Memory)
		k.rec.AttachTracer(o.Trace)
	}
	k.c.Port.Observe(o)
}

// Tracer returns the attached event tracer (nil when tracing is off).
func (k *Kernel[P, C]) Tracer() *trace.Tracer { return k.tracer }

// Meter returns the board cycle meter.
func (k *Kernel[P, C]) Meter() *cycles.Meter { return k.c.Meter }

// FlavourName is the flavour label metrics and the profile carry; empty
// until Attach receives a registry.
func (k *Kernel[P, C]) FlavourName() string { return k.flavour }

// Counters returns the kernel's event counts.
func (k *Kernel[P, C]) Counters() Counters { return k.counters }

// Records returns the port-neutral record of every process, in load
// order.
func (k *Kernel[P, C]) Records() []*Process {
	out := make([]*Process, len(k.Procs))
	for i, p := range k.Procs {
		out[i] = p.record()
	}
	return out
}

// Alive reports whether any process can run again.
func (k *Kernel[P, C]) Alive() bool {
	for _, p := range k.Procs {
		if p.record().Alive() {
			return true
		}
	}
	return false
}

// Output returns the accumulated console output of a process.
func (k *Kernel[P, C]) Output(p P) string { return p.record().Output() }

// AppendOutput adds console bytes for a process.
func (k *Kernel[P, C]) AppendOutput(p P, s string) {
	r := p.record()
	r.output = append(r.output, s...)
}

// ClassName names a syscall class for trace output.
func (k *Kernel[P, C]) ClassName(class C) string {
	if uint64(class) < uint64(k.c.Classes) {
		return classNames[class]
	}
	return fmt.Sprintf("svc-%d", class)
}

// window returns the profile window name for a syscall class.
func (k *Kernel[P, C]) window(class C) string {
	if uint64(class) < uint64(k.c.Classes) {
		return classWindows[class]
	}
	return "syscall/" + k.ClassName(class)
}

// Emit records a trace event attributed to p (or the kernel when p is
// nil). It is a no-op without an attached tracer and never touches the
// cycle meter.
func (k *Kernel[P, C]) Emit(kind trace.Kind, p P, a, b uint64, label string) {
	if k.tracer == nil {
		return
	}
	ev := trace.Event{
		Cycle: k.c.Meter.Cycles(),
		Kind:  kind,
		Proc:  trace.KernelProc,
		A:     a,
		B:     b,
		Label: label,
	}
	var kernel P
	if p != kernel {
		r := p.record()
		ev.Proc, ev.Name = r.ID, r.Name
	}
	k.tracer.Emit(ev)
}

// Attr charges the cycles elapsed since start to a folded-stack window
// under the process (or the kernel when p is nil). The windows in
// RunOnce and the ports' loaders are disjoint and cover every
// cycle-charging path, so Profile can close the books with a single
// residue sample.
func (k *Kernel[P, C]) Attr(start uint64, p P, window string) {
	if k.prof == nil {
		return
	}
	d := k.c.Meter.Cycles() - start
	if d == 0 {
		return
	}
	name := "kernel"
	var kernel P
	if p != kernel {
		name = p.record().Name
	}
	k.prof.Add(d, k.flavour, name, window)
}

// Profile returns a copy of the folded-stack cycle profile with the
// still-unattributed residue (cycles charged outside the instrumented
// windows, e.g. by direct driver calls in tests) booked under
// `flavour;kernel;unattributed`, so that the profile's Total always
// equals the machine's cycle meter. Returns nil when metrics are off.
func (k *Kernel[P, C]) Profile() *metrics.Profile {
	if k.prof == nil {
		return nil
	}
	out := metrics.NewProfile()
	out.Merge(k.prof)
	if total, attributed := k.c.Meter.Cycles(), out.Total(); attributed < total {
		out.Add(total-attributed, k.flavour, "kernel", "unattributed")
	}
	return out
}

// PublishCoreStats books the block-cache fast-core counters
// (blockcache_*_total, flavour-labelled) into the attached registry.
// No-op without metrics or with the fast core disabled; call once per
// completed run — the fast core's hot path never sees the registry.
func (k *Kernel[P, C]) PublishCoreStats() {
	if k.Metrics == nil {
		return
	}
	k.c.Machine.FastStats().Publish(k.Metrics, metrics.L("flavour", k.flavour))
}

// checkpoint records a flight-recorder snapshot at the current cycle.
// No-op (and zero simulated cost) without an attached recorder.
func (k *Kernel[P, C]) checkpoint(label string) {
	if k.rec == nil {
		return
	}
	k.rec.Checkpoint(k.c.Meter.Cycles(), label, k.FlightFields())
}

// FlightFields captures the kernel-visible state for the flight
// recorder: the full machine state plus the scheduler bookkeeping and a
// per-process view (lifecycle state, the port's saved resume point,
// restart count, wake deadline, a digest of the saved registers, and a
// digest of the output each process has printed so far).
func (k *Kernel[P, C]) FlightFields() []flightrec.Field {
	f := k.c.Machine.FlightFields()
	var leds, restarts uint64
	for i, on := range k.LEDs {
		if on {
			leds |= 1 << i
		}
	}
	for _, p := range k.Procs {
		restarts += uint64(p.record().Restarts)
	}
	f = append(f,
		flightrec.F("kern.switches", k.Switches),
		flightrec.F("kern.faults", k.Faults),
		flightrec.F("kern.restarts", restarts),
		flightrec.F("kern.leds", leds),
	)
	if n := len(k.Procs); n > 0 {
		f = append(f, flightrec.F("kern.cursor", k.Switches%uint64(n)))
	}
	for _, p := range k.Procs {
		r := p.record()
		pre := fmt.Sprintf("proc.%d.", r.ID)
		field, value, regs := k.c.Port.Context(p)
		f = append(f,
			flightrec.F(pre+"state", uint64(r.State)),
			flightrec.F(pre+field, value),
			flightrec.F(pre+"restarts", uint64(r.Restarts)),
			flightrec.F(pre+"wake", r.WakeAt),
			flightrec.F(pre+"regs", regs),
			flightrec.F(fmt.Sprintf("out.%d", r.ID), flightrec.DigestBytes(r.output)),
		)
	}
	return f
}
