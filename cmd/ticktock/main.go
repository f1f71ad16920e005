// Command ticktock boots the simulated board, loads a set of release-test
// applications, runs the kernel scheduler to completion and prints each
// process's console output and final state.
//
// Usage:
//
//	ticktock [-flavour ticktock|tock] [-list] [-quanta N] [test ...]
//
// With no test names, every release test runs. -list prints the available
// test names.
package main

import (
	"flag"
	"fmt"
	"os"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/kernel"
)

func main() {
	flavour := flag.String("flavour", "ticktock", "kernel flavour: ticktock (granular) or tock (monolithic baseline)")
	list := flag.Bool("list", false, "list available tests and exit")
	quanta := flag.Int("quanta", 4000, "maximum scheduler quanta per test")
	sched := flag.String("scheduler", "round-robin", "scheduling discipline: round-robin, cooperative or priority")
	policy := flag.String("policy", "stop", "fault policy: stop or restart")
	stats := flag.Bool("stats", false, "print the instrumented method cycle table after each test")
	trace := flag.Bool("trace", false, "print every executed user instruction")
	flag.Parse()

	cases := apps.All()
	if *list {
		for _, tc := range cases {
			diff := ""
			if tc.ExpectDiff {
				diff = " (output differs across flavours)"
			}
			fmt.Printf("%s%s\n", tc.Name, diff)
		}
		return
	}

	fl, ok := kernel.ParseFlavour(*flavour)
	if !ok {
		fmt.Fprintf(os.Stderr, "ticktock: unknown flavour %q\n", *flavour)
		os.Exit(2)
	}
	var sc kernel.Scheduler
	switch *sched {
	case "round-robin":
		sc = kernel.SchedRoundRobin
	case "cooperative":
		sc = kernel.SchedCooperative
	case "priority":
		sc = kernel.SchedPriority
	default:
		fmt.Fprintf(os.Stderr, "ticktock: unknown scheduler %q\n", *sched)
		os.Exit(2)
	}
	var fp kernel.FaultPolicy
	switch *policy {
	case "stop":
		fp = kernel.PolicyStop
	case "restart":
		fp = kernel.PolicyRestart
	default:
		fmt.Fprintf(os.Stderr, "ticktock: unknown fault policy %q\n", *policy)
		os.Exit(2)
	}

	selected := cases
	if flag.NArg() > 0 {
		selected = nil
		for _, name := range flag.Args() {
			tc, ok := apps.Find(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "ticktock: unknown test %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, tc)
		}
	}

	failed := 0
	for _, tc := range selected {
		k, err := kernel.New(kernel.Options{Flavour: fl, Scheduler: sc, FaultPolicy: fp})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ticktock: %v\n", err)
			os.Exit(1)
		}
		if *trace {
			k.Board.Machine.Trace = func(pc uint32, in armv7m.Instr) {
				fmt.Printf("  0x%08x  %s\n", pc, in)
			}
		}
		var procs []*kernel.Process
		for _, app := range tc.Apps {
			p, err := k.LoadProcess(app)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ticktock: loading %s: %v\n", app.Name, err)
				os.Exit(1)
			}
			procs = append(procs, p)
		}
		q := tc.Quanta
		if q == 0 {
			q = *quanta
		}
		if _, err := k.Run(q); err != nil {
			fmt.Fprintf(os.Stderr, "ticktock: running %s: %v\n", tc.Name, err)
			failed++
			continue
		}
		fmt.Printf("=== %s (%s kernel, %d cycles) ===\n", tc.Name, fl, k.Meter().Cycles())
		for _, p := range procs {
			fmt.Printf("--- %s [%s]\n%s", p.Name, p.State, k.Output(p))
		}
		if *stats {
			fmt.Printf("--- cycles\n%s", k.Stats.String())
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
