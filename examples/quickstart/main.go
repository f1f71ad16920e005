// Quickstart: boot a TickTock kernel on the simulated board, load two
// applications, run them to completion, and show that the verified MPU
// configuration kept the misbehaving one in its sandbox — then dump the
// run's metrics table and folded-stack cycle profile.
package main

import (
	"fmt"
	"log"
	"os"

	"ticktock"
	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/kernel"
)

func main() {
	reg := ticktock.NewMetricsRegistry()
	k, err := ticktock.NewKernel(ticktock.Options{Flavour: ticktock.FlavourTickTock, Observe: ticktock.Observe{Metrics: reg}})
	if err != nil {
		log.Fatal(err)
	}

	// A friendly app: prints a message and exits.
	hello := ticktock.App{
		Name: "hello", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			apps.Puts(a, "hello from userspace!\n")
			apps.Exit(a, 0)
			return a.MustAssemble()
		},
	}

	// A misbehaving app: tries to read another process's memory.
	snoop := ticktock.App{
		Name: "snoop", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			apps.Puts(a, "snooping...\n")
			// memory_start - 0x1000: someone else's RAM.
			apps.Syscall(a, kernel.SVCMemop, kernel.MemopMemoryStart, 0, 0, 0)
			a.Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 0x1000}).
				Emit(armv7m.Sub{Rd: armv7m.R4, Rn: armv7m.R0, Rm: armv7m.R5}).
				Emit(armv7m.Ldr{Rt: armv7m.R6, Rn: armv7m.R4})
			apps.Puts(a, "UNREACHABLE: read someone else's memory\n")
			apps.Exit(a, 1)
			return a.MustAssemble()
		},
	}

	p1, err := k.LoadProcess(hello)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := k.LoadProcess(snoop)
	if err != nil {
		log.Fatal(err)
	}

	if _, err := k.Run(1000); err != nil {
		log.Fatal(err)
	}

	for _, p := range []*ticktock.Process{p1, p2} {
		fmt.Printf("--- %s [%s]\n%s\n", p.Name, p.State, k.Output(p))
	}
	fmt.Printf("total simulated cycles: %d\n", k.Meter().Cycles())

	// The same run, through the observability subsystem: the metrics
	// table and the folded-stack profile (metrics observe the cycle
	// meter, they never charge it — the numbers above are unchanged).
	k.PublishMetrics()
	fmt.Printf("\n--- metrics\n")
	if err := reg.ExportTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	prof := k.Profile()
	fmt.Printf("\n--- folded-stack cycle profile (%d cycles, feed to flamegraph.pl)\n", prof.Total())
	if err := prof.ExportFolded(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
