// Command profile runs release-test cases with the cycle-accurate
// metrics subsystem attached and renders the result as a human table,
// Prometheus text exposition, or a folded-stack ("flamegraph") profile
// attributing every simulated cycle along flavour;process;window paths.
// Feed the folded output to any FlameGraph-compatible renderer
// (e.g. flamegraph.pl or speedscope).
//
// Usage:
//
//	profile -list
//	profile -case c_hello [-flavour ticktock|tock] [-format table|prometheus|folded]
//	profile -all [-format ...] [-o FILE]
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
	"ticktock/internal/metrics"
)

// renderers write the registry/profile pair in each output format.
var renderers = map[string]func(w io.Writer, reg *metrics.Registry, prof *metrics.Profile) error{
	"table": func(w io.Writer, reg *metrics.Registry, prof *metrics.Profile) error {
		if err := reg.ExportTable(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfolded-stack cycle profile (%d cycles total):\n", prof.Total())
		return prof.ExportFolded(w)
	},
	"prometheus": func(w io.Writer, reg *metrics.Registry, _ *metrics.Profile) error { return reg.ExportPrometheus(w) },
	"folded":     func(w io.Writer, _ *metrics.Registry, prof *metrics.Profile) error { return prof.ExportFolded(w) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "profile: "+format+"\n", args...)
		return 1
	}
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the release-test case names and exit")
	caseName := fs.String("case", "", "run one named case")
	all := fs.Bool("all", false, "run the whole campaign on both flavours and merge the snapshots")
	flavourName := fs.String("flavour", "ticktock", "kernel flavour for -case (ticktock or tock)")
	format := fs.String("format", "table", "output format: table, prometheus or folded")
	out := fs.String("o", "", "write output to FILE instead of stdout")
	workers := fs.Int("workers", 0, "campaign worker pool size for -all (0 = GOMAXPROCS)")
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
	if (*caseName == "") == !*all {
		return fail("exactly one of -case or -all is required (or -list); see -h")
	}
	render, ok := renderers[*format]
	if !ok {
		return fail("unknown format %q (want table, prometheus or folded)", *format)
	}

	var reg *metrics.Registry
	var prof *metrics.Profile
	switch {
	case *caseName != "":
		tc, ok := apps.Find(*caseName)
		if !ok {
			return fail("unknown case %q; -list shows the available names", *caseName)
		}
		fl, ok := kernel.ParseFlavour(*flavourName)
		if !ok {
			return fail("unknown flavour %q (want ticktock or tock)", *flavourName)
		}
		reg = metrics.NewRegistry()
		k, err := difftest.RunFlavour(tc, fl, difftest.Config{}, kcore.Observe{Metrics: reg})
		if err != nil {
			return fail("%v", err)
		}
		prof = k.Profile()
	case *all:
		rows := difftest.RunAllConfig(difftest.Config{Metrics: true, Workers: *workers})
		for _, r := range rows {
			if r.Err != nil {
				return fail("%s: %v", r.Name, r.Err)
			}
		}
		reg, prof = difftest.MergeMetrics(rows), difftest.MergeProfiles(rows)
	}

	var err error
	if *out == "" {
		err = render(stdout, reg, prof)
	} else if f, cerr := os.Create(*out); cerr != nil {
		err = cerr
	} else {
		err = errors.Join(render(f, reg, prof), f.Close())
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}
