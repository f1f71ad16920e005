// Command benchtab regenerates the paper's Figure 11: average simulated
// CPU cycles per instrumented process-abstraction method, for TickTock
// (granular) vs Tock (monolithic baseline), over the release tests plus
// allocator-stressing workloads.
//
// Usage:
//
//	benchtab
package main

import (
	"flag"
	"fmt"
	"os"

	"ticktock/internal/cyclebench"
)

func main() {
	flag.Parse()
	rows, err := cyclebench.Compare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Figure 11: Average CPU cycles for process tasks")
	fmt.Print(cyclebench.Table(rows))
	fmt.Println("\n(simulated deterministic cycle model; compare shapes, not absolutes)")
}
