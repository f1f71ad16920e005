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

func main() {
	list := flag.Bool("list", false, "list the traceable release-test cases and exit")
	caseName := flag.String("case", "", "release-test case to trace (see -list)")
	flavour := flag.String("flavour", "ticktock", "kernel flavour: ticktock or tock")
	format := flag.String("format", "text", "output format: text or chrome")
	capacity := flag.Int("cap", 1<<17, "trace ring-buffer capacity in events")
	outPath := flag.String("o", "", "write output to FILE instead of stdout")
	fromCycle := flag.Uint64("from-cycle", 0, "only render events at or after this cycle")
	toCycle := flag.Uint64("to-cycle", ^uint64(0), "only render events at or before this cycle")
	flag.Parse()

	if *list {
		for _, tc := range apps.All() {
			fmt.Println(tc.Name)
		}
		return
	}

	tc, ok := apps.Find(*caseName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracetab: unknown case %q (use -list)\n", *caseName)
		os.Exit(2)
	}
	fl, ok := kernel.ParseFlavour(*flavour)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracetab: unknown flavour %q\n", *flavour)
		os.Exit(2)
	}

	tr := trace.New(*capacity)
	k, err := difftest.RunFlavour(tc, fl, difftest.Config{}, kcore.Observe{Trace: tr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetab: %v\n", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracetab: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "text":
		err = tr.ExportTextWindow(w, *fromCycle, *toCycle)
	case "chrome":
		err = tr.ExportChromeJSONWindow(w, *fromCycle, *toCycle)
	default:
		fmt.Fprintf(os.Stderr, "tracetab: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetab: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "traced %s on %s: %d events (%d dropped), %d context switches, %d cycles\n",
		tc.Name, fl, tr.Emitted(), tr.Dropped(), k.Switches, k.Meter().Cycles())
}
