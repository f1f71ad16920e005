package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// workers is every workload's closed-loop worker count, and the
	// worker count of the campaigns the benchmark runs. One worker
	// leaves the second CPU of a 2-CPU host to the Go runtime's
	// background GC: with two workers contending for both CPUs, peak RSS
	// and tail latency varied far more between runs than the bounds
	// allow.
	workers = 1
	// warmup is how long a workload runs untimed before the timed phase,
	// so the heap has grown and the caches are warm.
	warmup = time.Second
	// setupReps is how often a run sets the workload up; setup_s is
	// the median.
	setupReps = 15
	// minBeyond is the number of samples the reported tail percentile
	// must have above it.
	minBeyond = 10
	// minSamples keeps a timed phase running past its deadline until
	// unit_ms.p99 has minBeyond samples beyond it.
	minSamples = 100 * minBeyond
	// minPasses is how many traced passes a traced run makes at least,
	// so the exact counts are compared between two passes.
	minPasses = 2
	// memProbes is how many probe processes an untraced run starts, one
	// after another, to measure peak_rss_mb; it reports their median.
	// The peak of one long-lived process depends on when its GC cycles
	// happen to meet the workload's allocation bursts, and it only grows
	// with the run's length: over 10 runs of verify it spread by a third
	// of its median.
	memProbes = 9
	// probeTimeout bounds one probe process.
	probeTimeout = 60 * time.Second
)

// env is what a workload's set-up receives.
type env struct {
	name    string
	seed    int64
	workdir string
}

// workload is one named benchmark input. setup builds the inputs up to
// the first dispatch and returns the moment the first unit could be
// dispatched.
type workload func(env) (runner, time.Time, error)

// runner drives one set-up workload.
type runner interface {
	// measure runs units in a closed loop until the deadline has passed
	// and at least minUnits units have completed.
	measure(deadline time.Time, minUnits int) (loop, error)
	// identity is the unit count of the workload's identity set, which
	// measure runs first: campaign 0, the suite, or the registry.
	identity() int
	// check verifies, outside the timed phase, the outputs the timed
	// phase produced.
	check() []string
	// pass re-drives the workload's fixed identity set once, timing the
	// calls into each layer, and checks the re-drive against the real
	// driver unit by unit.
	pass() (pass, []string, error)
	// close releases what setup created.
	close()
}

var workloads = map[string]workload{
	"faultcamp":          setupFaultcamp,
	"difftest":           setupDifftest,
	"verify":             setupVerify,
	"faultcamp-observed": setupObserved,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// loop is what a timed phase measured.
type loop struct {
	samples []float64 // per-unit host latency, ms
	failed  int
	elapsed time.Duration
}

// closedLoop runs units one after another, each starting when the
// previous one finishes, until the deadline has passed and at least
// minUnits units have completed. unit reports whether the unit
// succeeded.
func closedLoop(deadline time.Time, minUnits int, unit func(u int) bool) loop {
	var l loop
	start := time.Now()
	for u := 0; time.Now().Before(deadline) || u < minUnits; u++ {
		t := time.Now()
		if !unit(u) {
			l.failed++
		}
		l.samples = append(l.samples, msSince(t))
	}
	l.elapsed = time.Since(start)
	return l
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// endToEnd sets the workload up setupReps times, warms it up, runs the
// timed phase with tracing off, checks the outputs and reports the
// end-to-end metrics. The first set-up is timed from process start.
func endToEnd(wl workload, e env, start time.Time, seconds float64, stdout io.Writer) (result, []string, error) {
	var r runner
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		if r != nil {
			r.close()
		}
		var ready time.Time
		var err error
		if r, ready, err = wl(e); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = ready.Sub(t0).Seconds()
	}
	defer r.close()

	if _, err := r.measure(time.Now().Add(warmup), 0); err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	l, err := r.measure(time.Now().Add(time.Duration(seconds*float64(time.Second))), minSamples)
	if err != nil {
		return result{}, nil, err
	}
	problems := r.check()
	rss, err := probeRSS(e)
	if err != nil {
		return result{}, nil, err
	}

	sort.Float64s(l.samples)
	n := len(l.samples)
	p, ok := tailPercentile(n)
	if !ok || p != 99 {
		problems = append(problems, fmt.Sprintf("%d unit samples leave fewer than %d beyond p99", n, minBeyond))
		p = 99
	}
	fmt.Fprintf(stdout, "%s workers=%d unit_ms samples=%d (p%g has %d beyond) elapsed_s=%.3f\n",
		e.name, workers, n, p, n-rank(n, p), l.elapsed.Seconds())
	vals := map[string]float64{
		"setup_s":     median(setups),
		"units_per_s": float64(n) / l.elapsed.Seconds(),
		"unit_ms.p50": percentile(l.samples, 50),
		"unit_ms.p99": percentile(l.samples, p),
		"peak_rss_mb": rss,
	}
	res := result{Attempted: n, Failed: l.failed, Metrics: map[string]metric{}}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res, problems, nil
}

// pass is what one traced pass over a workload's identity set measured.
type pass struct {
	// vals holds host wall seconds and other measured values by metric
	// name; a run reports their median over its passes.
	vals map[string]float64
	// counts holds exact counts by metric name; every pass of a run
	// must give the same ones.
	counts map[string]uint64
	// traced and untraced are the wall time of the re-drive and of the
	// real driver over the same units; covered is the part of traced
	// spent inside layer spans.
	traced, untraced, covered float64
	// alloc is the heap the real driver allocated, in bytes.
	alloc float64
	units int
	// failed counts units the real driver failed.
	failed int
}

func newPass() pass {
	return pass{vals: map[string]float64{}, counts: map[string]uint64{}}
}

// span times f into the named layer.
func (p *pass) span(name string, f func()) {
	t := time.Now()
	f()
	d := time.Since(t).Seconds()
	p.vals[name] += d
	p.covered += d
}

// real times one call of the workload's real driver.
func (p *pass) real(f func()) {
	a := heapAllocBytes()
	t := time.Now()
	f()
	p.untraced += time.Since(t).Seconds()
	p.alloc += heapAllocBytes() - a
}

// redrive times the re-drive of one unit.
func (p *pass) redrive(f func()) {
	t := time.Now()
	f()
	p.traced += time.Since(t).Seconds()
}

// traceRun sets the workload up once and makes traced passes over its
// identity set until the run's wall time is spent, then reports the
// per-layer metrics.
func traceRun(wl workload, e env, seconds float64) (result, []string, error) {
	r, _, err := wl(e)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	cpu0 := readCPU()
	start := time.Now()
	var passes []pass
	var problems []string
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		p, probs, err := r.pass()
		if err != nil {
			return result{}, nil, err
		}
		problems = append(problems, probs...)
		if len(passes) > 0 {
			problems = append(problems, diffCounts("pass 1", passes[0].counts,
				fmt.Sprintf("pass %d", len(passes)+1), p.counts)...)
		}
		passes = append(passes, p)
	}
	cpu := readCPU().sub(cpu0)
	probs, err := checkIdentity(e, passes[0].counts)
	if err != nil {
		return result{}, nil, err
	}
	problems = append(problems, probs...)

	res := result{Metrics: layerMetrics(passes, cpu)}
	for _, p := range passes {
		res.Attempted += p.units
		res.Failed += p.failed
	}
	return res, problems, nil
}

// layerMetrics folds a traced run's passes into every per-layer metric.
// Counts come from the first pass (all passes agree), measured values
// are medians over the passes, and ratios are derived from those.
func layerMetrics(passes []pass, cpu cpuStats) map[string]metric {
	val := func(name string) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.vals[name]
		}
		return median(xs)
	}
	count := func(name string) float64 { return float64(passes[0].counts[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var traced, untraced, covered, alloc, units float64
	walls, untracedWalls := make([]float64, len(passes)), make([]float64, len(passes))
	for i, p := range passes {
		traced += p.traced
		untraced += p.untraced
		covered += p.covered
		alloc += p.alloc
		units += float64(p.units)
		walls[i], untracedWalls[i] = p.traced, p.untraced
	}
	derived := map[string]float64{
		"step.sim_mcycles_per_s":    ratio(count("step.sim_cycles")/1e6, val("step.s")),
		"blockcache.hit_ratio":      ratio(count("blockcache.hits"), count("blockcache.hits")+count("blockcache.misses")),
		"blockcache.hint_hit_ratio": ratio(count("blockcache.hint_hits"), count("blockcache.hint_hits")+count("blockcache.hint_misses")),
		"runtime.gc_cpu_frac":       ratio(cpu.gc, cpu.busy()),
		"runtime.busy_cpu_s":        cpu.busy() / float64(len(passes)),
		"runtime.alloc_mb_per_unit": ratio(alloc/1e6, units),
		"trace.coverage":            ratio(covered, traced),
		"trace.overhead":            ratio(traced, untraced),
		"trace.wall_s":              median(walls),
		"trace.untraced_wall_s":     median(untracedWalls),
	}
	for _, c := range verifyComponents {
		s := "verify." + c.slug
		derived[s+".states_per_s"] = ratio(count(s+".states"), val(s+".s"))
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v, ok := derived[d.name]
		if !ok {
			if _, exact := passes[0].counts[d.name]; exact {
				v = count(d.name)
			} else {
				v = val(d.name)
			}
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// diffCounts lists the exact counts that differ between two runs.
func diffCounts(aName string, a map[string]uint64, bName string, b map[string]uint64) []string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("exact count %s changed: %s=%d %s=%d", k, aName, a[k], bName, b[k]))
		}
	}
	sort.Strings(out)
	return out
}

// checkIdentity compares a traced run's exact counts with the record an
// earlier run of the same binary, workload and seed left in the work
// directory, or leaves that record for the next run.
func checkIdentity(e env, counts map[string]uint64) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(e.workdir, "identity")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", e.name, e.seed, hex.EncodeToString(sum[:8])))
	prev, err := os.ReadFile(path)
	if err == nil {
		var rec map[string]uint64
		if err := json.Unmarshal(prev, &rec); err != nil {
			return nil, fmt.Errorf("identity record %s: %w", path, err)
		}
		return diffCounts("recorded run", rec, "this run", counts), nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(counts)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return nil, os.Rename(tmp, path)
}

// cpuStats is the Go runtime's CPU-time estimate, in seconds.
type cpuStats struct{ gc, total, idle float64 }

// busy is the CPU time spent running Go code or the runtime.
func (c cpuStats) busy() float64 { return c.total - c.idle }

func (c cpuStats) sub(o cpuStats) cpuStats {
	return cpuStats{c.gc - o.gc, c.total - o.total, c.idle - o.idle}
}

// readCPU reads the runtime's CPU classes. They are brought up to date
// at the end of a GC cycle, so it forces one first.
func readCPU() cpuStats {
	runtime.GC()
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return cpuStats{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// probe is what a probe process does: it sets the workload up once,
// runs its identity set once and exits, so its peak resident memory is
// that of one campaign, one suite or one registry check run on its own.
func probe(wl workload, e env) error {
	r, _, err := wl(e)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	l, err := r.measure(time.Now(), r.identity())
	if err != nil {
		return err
	}
	if l.failed > 0 {
		return fmt.Errorf("%d of %d units failed", l.failed, len(l.samples))
	}
	return nil
}

// probeCommand is this binary run in one of its probe modes on the
// workload e.
func probeCommand(ctx context.Context, mode string, e env) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, mode, "--workload", e.name,
		"--seed", strconv.FormatInt(e.seed, 10), "--workdir", e.workdir)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// probeRSS measures peak_rss_mb: it starts one prober process, which
// runs the probes and prints the median of their peaks, and waits for
// it. The probes are not started from this process because on Linux a
// process's peak RSS includes the resident memory of the process that
// started it, up to its exec; the prober holds little.
func probeRSS(e env) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), memProbes*probeTimeout)
	defer cancel()
	cmd, err := probeCommand(ctx, "--rss-probes", e)
	if err != nil {
		return 0, err
	}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("memory prober: %w", err)
	}
	mb, err := strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("memory prober printed %q: %w", out, err)
	}
	return mb, nil
}

// rssProbes is what the prober does: it starts memProbes probe
// processes one after another, waiting for each, and returns the median
// of their peak resident memory in MB.
func rssProbes(e env) (float64, error) {
	peaks := make([]float64, memProbes)
	for i := range peaks {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		cmd, err := probeCommand(ctx, "--probe", e)
		if err == nil {
			err = cmd.Run()
		}
		cancel()
		if err != nil {
			return 0, fmt.Errorf("memory probe %d: %w", i+1, err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return 0, errors.New("memory probe: no resource usage")
		}
		peaks[i] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return median(peaks), nil
}
