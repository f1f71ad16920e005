// Command tracetab runs a release-test application under the kernel
// event tracer and renders the recorded timeline — the debugging
// companion to the §6.1 differential campaign: instead of rerunning a
// diverging case under print statements, trace it and read the causal
// timeline (or load the Chrome JSON into chrome://tracing / Perfetto).
//
// Usage:
//
//	tracetab -list
//	tracetab -case mpu_walk_region [-flavour ticktock|tock] [-format text|chrome] [-cap N] [-o FILE]
//	         [-from-cycle N] [-to-cycle N]
//
// Examples:
//
//	tracetab -case grant_test                         # text timeline on stdout
//	tracetab -case blink -format chrome -o blink.json # open in chrome://tracing
//	tracetab -case timer_test -flavour tock           # trace the baseline kernel
//	tracetab -case blink -from-cycle 5000 -to-cycle 9000   # zoom into a window
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ticktock/internal/apps"
	"ticktock/internal/difftest"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/trace"
)

// exporters render a tracer's events in [from, to] in each output format.
var exporters = map[string]func(t *trace.Tracer, w io.Writer, from, to uint64) error{
	"text":   (*trace.Tracer).ExportTextWindow,
	"chrome": (*trace.Tracer).ExportChromeJSONWindow,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the traceable release-test cases and exit")
	caseName := fs.String("case", "", "release-test case to trace (see -list)")
	flavour := fs.String("flavour", "ticktock", "kernel flavour: ticktock or tock")
	format := fs.String("format", "text", "output format: text or chrome")
	capacity := fs.Int("cap", 1<<17, "trace ring-buffer capacity in events")
	outPath := fs.String("o", "", "write output to FILE instead of stdout")
	fromCycle := fs.Uint64("from-cycle", 0, "only render events at or after this cycle")
	toCycle := fs.Uint64("to-cycle", ^uint64(0), "only render events at or before this cycle")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, tc := range apps.All() {
			fmt.Fprintln(stdout, tc.Name)
		}
		return 0
	}

	tc, ok := apps.Find(*caseName)
	if !ok {
		fmt.Fprintf(stderr, "tracetab: unknown case %q (use -list)\n", *caseName)
		return 2
	}
	fl, ok := kernel.ParseFlavour(*flavour)
	if !ok {
		fmt.Fprintf(stderr, "tracetab: unknown flavour %q\n", *flavour)
		return 2
	}
	export, ok := exporters[*format]
	if !ok {
		fmt.Fprintf(stderr, "tracetab: unknown format %q\n", *format)
		return 2
	}

	tr := trace.New(*capacity)
	k, err := difftest.RunFlavour(tc, fl, difftest.Config{}, kcore.Observe{Trace: tr})
	if err != nil {
		fmt.Fprintf(stderr, "tracetab: %v\n", err)
		return 1
	}

	if *outPath == "" {
		err = export(tr, stdout, *fromCycle, *toCycle)
	} else if f, cerr := os.Create(*outPath); cerr != nil {
		err = cerr
	} else {
		err = errors.Join(export(tr, f, *fromCycle, *toCycle), f.Close())
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracetab: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "traced %s on %s: %d events (%d dropped), %d context switches, %d cycles\n",
		tc.Name, fl, tr.Emitted(), tr.Dropped(), k.Switches, k.Meter().Cycles())
	return 0
}
