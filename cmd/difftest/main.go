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
// and any divergence is a bug — exit 1 on the first non-ok row.
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
	"os"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/runpack"
	"ticktock/internal/telemetry"
)

func main() {
	verbose := flag.Bool("v", false, "print both outputs for differing tests")
	workers := flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
	notrace := flag.Bool("notrace", false, "disable divergence trace dumps")
	bug := flag.String("bug", "", "re-enable a published baseline bug (grant-overlap, brk-underflow, missed-mode-switch)")
	packDir := flag.String("runpack", "", "seal the campaign into a content-addressed artifact pack under DIR")
	distillDir := flag.String("distill", "", "distill every unexpected divergence into a regression pack under DIR")
	timeout := flag.Duration("timeout", 0, "per-case wall-clock timeout under the campaign supervisor (0 = unbounded)")
	retries := flag.Int("retries", 0, "retry budget per case under the campaign supervisor")
	cores := flag.Bool("cores", false, "diff the block-cache fast core against the byte-scan oracle core instead of kernel flavours")
	serve := flag.String("serve", "", "serve live telemetry on ADDR while the campaign runs (/metrics, /progress, /healthz, /timeline); the bound address is printed to stderr")
	progress := flag.Bool("progress", false, "render a single-line live progress ticker to stderr")
	flag.Parse()

	if *cores {
		rows := difftest.RunCoreOracle(*workers)
		fmt.Print(difftest.CoreOracleTable(rows))
		for _, r := range rows {
			if !r.OK() {
				os.Exit(1)
			}
		}
		return
	}

	cfg := difftest.Config{Workers: *workers, NoTraceDump: *notrace, Metrics: *packDir != ""}
	switch *bug {
	case "":
	case "grant-overlap":
		cfg.Bugs.GrantOverlap = true
	case "brk-underflow":
		cfg.Bugs.BrkUnderflow = true
	case "missed-mode-switch":
		cfg.Bugs.MissedModeSwitch = true
	default:
		fmt.Fprintf(os.Stderr, "difftest: unknown -bug %q\n", *bug)
		os.Exit(2)
	}

	var plane *telemetry.Plane
	if *serve != "" || *progress {
		plane = telemetry.New()
	}
	if *serve != "" {
		srv, err := telemetry.Serve(*serve, plane)
		if err != nil {
			fmt.Fprintf(os.Stderr, "difftest: telemetry server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s\n", srv.Addr())
	}

	tty := (*telemetry.TTY)(nil)
	if *progress {
		tty = telemetry.StartTTY(os.Stderr, plane, 0)
	}
	rows, _, err := difftest.RunAllSupervised(cfg, campaign.Config{Timeout: *timeout, Retries: *retries}, plane)
	tty.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "difftest: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(difftest.Table(rows))
	if *packDir != "" {
		dir, receipt, err := runpack.EmitDifftest(*packDir, cfg, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "difftest: sealing runpack: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "runpack: %s\n%s\n", dir, receipt)
	}
	if *distillDir != "" {
		for _, r := range rows {
			if r.Err != nil || r.OK() {
				continue
			}
			dir, _, err := runpack.DistillCase(*distillDir, r.Name, cfg.Bugs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "difftest: distilling %s: %v\n", r.Name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "distilled %s -> %s\n", r.Name, dir)
		}
	}
	for _, r := range rows {
		if *verbose && !r.Equal && r.Err == nil {
			fmt.Printf("\n--- %s (ticktock) ---\n%s--- %s (tock) ---\n%s", r.Name, r.TickTock, r.Name, r.Tock)
		}
		if r.Divergence != "" {
			fmt.Printf("\n=== %s divergence trace ===\n%s", r.Name, r.Divergence)
		}
		if r.BisectionText != "" {
			fmt.Printf("\n=== %s flight-recorder bisection ===\n%s\n", r.Name, r.BisectionText)
		}
	}
	if s := difftest.Summarize(rows); s.Unexpected > 0 || s.Errored > 0 {
		os.Exit(1)
	}
}
