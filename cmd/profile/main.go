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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "profile: "+format+"\n", args...)
	os.Exit(1)
}

// render writes the registry/profile pair in the requested format.
func render(w io.Writer, format string, reg *metrics.Registry, prof *metrics.Profile) error {
	switch format {
	case "table":
		if err := reg.ExportTable(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfolded-stack cycle profile (%d cycles total):\n", prof.Total())
		return prof.ExportFolded(w)
	case "prometheus":
		return reg.ExportPrometheus(w)
	case "folded":
		return prof.ExportFolded(w)
	default:
		return fmt.Errorf("unknown format %q (want table, prometheus or folded)", format)
	}
}

func main() {
	list := flag.Bool("list", false, "list the release-test case names and exit")
	caseName := flag.String("case", "", "run one named case")
	all := flag.Bool("all", false, "run the whole campaign on both flavours and merge the snapshots")
	flavourName := flag.String("flavour", "ticktock", "kernel flavour for -case (ticktock or tock)")
	format := flag.String("format", "table", "output format: table, prometheus or folded")
	out := flag.String("o", "", "write output to FILE instead of stdout")
	workers := flag.Int("workers", 0, "campaign worker pool size for -all (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, tc := range apps.All() {
			fmt.Println(tc.Name)
		}
		return
	}
	if (*caseName == "") == !*all {
		fatalf("exactly one of -case or -all is required (or -list); see -h")
	}

	var reg *metrics.Registry
	var prof *metrics.Profile
	switch {
	case *caseName != "":
		tc, ok := apps.Find(*caseName)
		if !ok {
			fatalf("unknown case %q; -list shows the available names", *caseName)
		}
		fl, ok := kernel.ParseFlavour(*flavourName)
		if !ok {
			fatalf("unknown flavour %q (want ticktock or tock)", *flavourName)
		}
		reg = metrics.NewRegistry()
		k, err := difftest.RunFlavour(tc, fl, difftest.Config{}, kcore.Observe{Metrics: reg})
		if err != nil {
			fatalf("%v", err)
		}
		prof = k.Profile()
	case *all:
		rows := difftest.RunAllConfig(difftest.Config{Metrics: true, Workers: *workers})
		for _, r := range rows {
			if r.Err != nil {
				fatalf("%s: %v", r.Name, r.Err)
			}
		}
		reg, prof = difftest.MergeMetrics(rows), difftest.MergeProfiles(rows)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}()
		w = f
	}
	if err := render(w, *format, reg, prof); err != nil {
		fatalf("%v", err)
	}
}
