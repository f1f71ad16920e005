// Command perfbench is the repository benchmark. It runs one named
// workload in a closed loop for a fixed wall time, checks every output,
// and prints the metrics as one JSON object on the last line of
// standard output:
//
//	go run . --workload faultcamp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// re-drives a fixed pass of the workload through each layer's public
// entry points, timing its own calls into them, and reports per-layer
// host wall time and exact simulated counts. README.md describes the
// workloads, the metrics and the measurement rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (picks the fault-injection scenario lists)")
	seconds := fs.Float64("seconds", 10, "wall time one run measures")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced re-drive instead of the end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for campaign journals and exact-count identity records")
	probeOnly := fs.Bool("probe", false, "run the workload's identity set once and exit; an untraced run starts such processes to measure peak_rss_mb")
	prober := fs.Bool("rss-probes", false, "start the --probe processes of an untraced run and print the median of their peak RSS in MB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := env{name: *name, seed: *seed, workdir: *workdir}
	if *probeOnly {
		if err := probe(wl, e); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s probe: %v\n", *name, err)
			return 1
		}
		return 0
	}
	if *prober {
		mb, err := rssProbes(e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%v\n", mb)
		return 0
	}

	var res result
	var problems []string
	var err error
	if *traced == 1 {
		res, problems, err = traceRun(wl, e, *seconds)
	} else {
		res, problems, err = endToEnd(wl, e, start, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	if !res.Correct {
		// A run that fails a check reports failure, not numbers.
		res.Metrics = map[string]metric{}
	}
	printSummary(stdout, *name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary prints every metric by name with its unit, one per line.
func printSummary(w io.Writer, name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %-40s %14.6g %s\n", name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d failed_frac=%g correct=%v\n",
		name, res.Attempted, res.Failed, failedFrac(res.Failed, res.Attempted), res.Correct)
}
