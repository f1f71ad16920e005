// Package cyclebench regenerates the paper's Figure 11: average simulated
// CPU cycles for the instrumented process-abstraction methods —
// allocate_grant, brk, build_readonly_buffer, build_readwrite_buffer,
// create and setup_mpu — measured on both kernel flavours while running
// the 21 release tests plus extra workloads designed to stress the
// memory-allocating code, exactly as §6.2 describes.
package cyclebench

import (
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/armv7m"
	"ticktock/internal/kernel"
)

// Methods lists the Figure 11 rows in the paper's order.
var Methods = []string{
	"allocate_grant",
	"brk",
	"build_readonly_buffer",
	"build_readwrite_buffer",
	"create",
	"setup_mpu",
}

// stressApp exercises brk/grant/allow paths heavily.
func stressApp(idx int) kernel.App {
	name := fmt.Sprintf("stress%d", idx)
	return kernel.App{
		Name: name, MinRAM: 16384, InitRAM: 2048, Stack: 1024, KernelHint: 2048,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			for i := 0; i < 8; i++ {
				apps.Syscall(a, kernel.SVCMemop, kernel.MemopSbrk, 512, 0, 0)
				apps.Syscall(a, kernel.SVCMemop, kernel.MemopSbrk, uint32(0xFFFFFFFF-256+1), 0, 0)
				apps.Syscall(a, kernel.SVCCommand, kernel.DriverGrant, 0, 32, 0)
			}
			// allow_ro / allow_rw churn.
			a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
				Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1600})
			for i := 0; i < 8; i++ {
				a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverConsole}).
					Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
					Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 16}).
					Emit(armv7m.SVC{Imm: kernel.SVCAllowRO})
				a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverBufferFill}).
					Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
					Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 16}).
					Emit(armv7m.SVC{Imm: kernel.SVCAllowRW})
			}
			apps.Exit(a, 0)
			return a.MustAssemble()
		},
	}
}

// RunFlavour runs the whole workload suite on one flavour and returns the
// merged method statistics.
func RunFlavour(fl kernel.Flavour) (*kernel.Stats, error) {
	total := kernel.NewStats()
	cases := apps.All()
	for s := 0; s < 3; s++ {
		cases = append(cases, apps.TestCase{Name: fmt.Sprintf("stress%d", s), Apps: []kernel.App{stressApp(s)}})
	}
	for _, tc := range cases {
		k, err := kernel.New(kernel.Options{Flavour: fl})
		if err != nil {
			return nil, err
		}
		for _, app := range tc.Apps {
			if _, err := k.LoadProcess(app); err != nil {
				return nil, fmt.Errorf("cyclebench %s: %w", tc.Name, err)
			}
		}
		quanta := tc.Quanta
		if quanta == 0 {
			quanta = 4000
		}
		if _, err := k.Run(quanta); err != nil {
			return nil, fmt.Errorf("cyclebench %s: %w", tc.Name, err)
		}
		total.Merge(k.Stats)
	}
	return total, nil
}

// Row is one Figure 11 line.
type Row struct {
	Method   string
	TickTock float64
	Tock     float64
}

// PctDiff returns the percentage difference TickTock vs Tock (negative
// means TickTock is faster).
func (r Row) PctDiff() float64 {
	if r.Tock == 0 {
		return 0
	}
	return 100 * (r.TickTock - r.Tock) / r.Tock
}

// Compare runs both flavours and assembles the Figure 11 table.
func Compare() ([]Row, error) {
	tt, err := RunFlavour(kernel.FlavourTickTock)
	if err != nil {
		return nil, err
	}
	tk, err := RunFlavour(kernel.FlavourTock)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, m := range Methods {
		rows = append(rows, Row{
			Method:   m,
			TickTock: tt.Get(m).Mean(),
			Tock:     tk.Get(m).Mean(),
		})
	}
	return rows, nil
}

// Table renders the comparison in the paper's format.
func Table(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %14s %14s %10s\n", "Method", "TickTock", "Tock", "Pct. Diff")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %14.2f %14.2f %+9.2f%%\n", r.Method, r.TickTock, r.Tock, r.PctDiff())
	}
	return b.String()
}
