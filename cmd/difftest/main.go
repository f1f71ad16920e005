// Command difftest runs the §6.1 differential-testing campaign: all 21
// release tests on both kernel flavours, comparing console outputs. It
// prints the campaign table and exits non-zero if any test's result does
// not match its expectation (16 identical, 5 legitimately differing) or
// any case failed to run.
//
// Unexpected mismatches come with a side-by-side kernel event trace of
// the two flavours (suppress with -notrace). The published baseline bugs
// can be re-enabled with -bug to watch the campaign catch them.
//
// Usage:
//
//	difftest [-v] [-j N] [-notrace] [-bug grant-overlap|brk-underflow|missed-mode-switch]
//	         [-runpack DIR] [-distill DIR] [-timeout D] [-retries N]
//	         [-serve ADDR] [-progress]
//	difftest -cores [-j N]
//
// With -cores the campaign diffs emulator cores instead of kernel
// flavours: every release test runs on both flavours under the trusted
// byte-scan oracle core and the block-cache fast core (docs/SPEED.md),
// and any divergence is a bug — exit 1 on the first non-ok row. -cores
// takes no flag but -j; any other is a usage error (exit 2).
//
// Every campaign runs under the crash-resilient supervisor
// (internal/campaign): a panicking case is recovered, and a case
// failing every attempt becomes an errored row carrying its last error
// instead of taking the pool down. -timeout cancels a wedged case at
// the wall-clock bound; -retries re-runs failed cases up to the budget.
//
// With -serve ADDR a live telemetry server answers while the campaign
// runs: /metrics, /progress, /healthz and /timeline (see
// docs/OBSERVABILITY.md). -progress renders a single-line live ticker
// to stderr. Neither changes the rows.
//
// With -runpack DIR the campaign is sealed into a content-addressed
// artifact pack under DIR (verify it with `runpack verify`). With
// -distill DIR every row that misses its expectation is additionally
// bisected and distilled into a minimal regression pack under DIR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/monolithic"
	"ticktock/internal/runpack"
	"ticktock/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("difftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print both outputs for differing tests")
	workers := fs.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
	notrace := fs.Bool("notrace", false, "disable divergence trace dumps")
	bug := fs.String("bug", "", "re-enable a published baseline bug (grant-overlap, brk-underflow, missed-mode-switch)")
	packDir := fs.String("runpack", "", "seal the campaign into a content-addressed artifact pack under DIR")
	distillDir := fs.String("distill", "", "distill every unexpected divergence into a regression pack under DIR")
	timeout := fs.Duration("timeout", 0, "per-case wall-clock timeout under the campaign supervisor (0 = unbounded)")
	retries := fs.Int("retries", 0, "retry budget per case under the campaign supervisor")
	cores := fs.Bool("cores", false, "diff the block-cache fast core against the byte-scan oracle core instead of kernel flavours (takes only -j)")
	serve := fs.String("serve", "", "serve live telemetry on ADDR while the campaign runs (/metrics, /progress, /healthz, /timeline); the bound address is printed to stderr")
	progress := fs.Bool("progress", false, "render a single-line live progress ticker to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := difftest.Config{Workers: *workers, NoTraceDump: *notrace, Metrics: *packDir != ""}
	if *bug != "" {
		var ok bool
		if cfg.Bugs, ok = monolithic.ParseBug(*bug); !ok {
			fmt.Fprintf(stderr, "difftest: unknown -bug %q\n", *bug)
			return 2
		}
	}

	if *cores {
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "cores" && f.Name != "j" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			fmt.Fprintf(stderr, "difftest: -cores takes only -j, not %s\n", strings.Join(extra, ", "))
			return 2
		}
		rows := difftest.RunCoreOracle(*workers)
		fmt.Fprint(stdout, difftest.CoreOracleTable(rows))
		for _, r := range rows {
			if !r.OK() {
				return 1
			}
		}
		return 0
	}

	var plane *telemetry.Plane
	if *serve != "" || *progress {
		plane = telemetry.New()
	}
	if *serve != "" {
		srv, err := telemetry.Serve(*serve, plane)
		if err != nil {
			fmt.Fprintf(stderr, "difftest: telemetry server: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving http://%s\n", srv.Addr())
	}

	tty := (*telemetry.TTY)(nil)
	if *progress {
		tty = telemetry.StartTTY(stderr, plane, 0)
	}
	rows, _, err := difftest.RunAllSupervised(cfg, campaign.Config{Timeout: *timeout, Retries: *retries}, plane)
	tty.Stop()
	if err != nil {
		fmt.Fprintf(stderr, "difftest: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, difftest.Table(rows))
	if *packDir != "" {
		dir, receipt, err := runpack.EmitDifftest(*packDir, cfg, rows)
		if err != nil {
			fmt.Fprintf(stderr, "difftest: sealing runpack: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "runpack: %s\n%s\n", dir, receipt)
	}
	if *distillDir != "" {
		for _, r := range rows {
			if r.Err != nil || r.OK() {
				continue
			}
			dir, _, err := runpack.DistillCase(*distillDir, r.Name, cfg.Bugs)
			if err != nil {
				fmt.Fprintf(stderr, "difftest: distilling %s: %v\n", r.Name, err)
				return 1
			}
			fmt.Fprintf(stderr, "distilled %s -> %s\n", r.Name, dir)
		}
	}
	for _, r := range rows {
		if *verbose && !r.Equal && r.Err == nil {
			fmt.Fprintf(stdout, "\n--- %s (ticktock) ---\n%s--- %s (tock) ---\n%s", r.Name, r.TickTock, r.Name, r.Tock)
		}
		if r.Divergence != "" {
			fmt.Fprintf(stdout, "\n=== %s divergence trace ===\n%s", r.Name, r.Divergence)
		}
		if r.BisectionText != "" {
			fmt.Fprintf(stdout, "\n=== %s flight-recorder bisection ===\n%s\n", r.Name, r.BisectionText)
		}
	}
	if s := difftest.Summarize(rows); s.Unexpected > 0 || s.Errored > 0 {
		return 1
	}
	return 0
}
