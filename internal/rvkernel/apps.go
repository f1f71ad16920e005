package rvkernel

import (
	"fmt"
	"strings"

	"ticktock/internal/kcore"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
)

// This file carries the RISC-V builds of a subset of the release tests —
// the §6.1 "we ran a subset of Tock's upstream applications on QEMU"
// campaign — and the runner that executes them on all three chips.

// syscall emits the a0..a3/a7 + ecall sequence.
func syscall(a *rv32.Assembler, class, a0, a1, a2, a3 uint32) {
	a.Emit(rv32.Li{Rd: rv32.A0, Imm: a0}).
		Emit(rv32.Li{Rd: rv32.A1, Imm: a1}).
		Emit(rv32.Li{Rd: rv32.A2, Imm: a2}).
		Emit(rv32.Li{Rd: rv32.A3, Imm: a3}).
		Emit(rv32.Li{Rd: rv32.A7, Imm: class}).
		Emit(rv32.Ecall{})
}

// puts emits console putchar calls.
func puts(a *rv32.Assembler, s string) {
	for _, ch := range s {
		syscall(a, SVCCommand, DriverConsole, 0, uint32(ch), 0)
	}
}

// exit emits the exit syscall.
func exit(a *rv32.Assembler, code uint32) {
	a.Emit(rv32.Li{Rd: rv32.A0, Imm: code}).Emit(rv32.Li{Rd: rv32.A7, Imm: SVCExit}).Emit(rv32.Ecall{})
}

// stdApp wraps a builder with default geometry.
func stdApp(name string, build func(a *rv32.Assembler)) App {
	return App{
		Name: name, MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *rv32.Program {
			a := rv32.NewAssembler(base)
			build(a)
			return a.MustAssemble()
		},
	}
}

// ReleaseSubset returns the RISC-V builds of eight upstream release tests.
func ReleaseSubset() []App {
	return []App{
		stdApp("c_hello", func(a *rv32.Assembler) {
			puts(a, "Hello World!\r\n")
			exit(a, 0)
		}),
		stdApp("blink", func(a *rv32.Assembler) {
			for i := 0; i < 3; i++ {
				syscall(a, SVCCommand, DriverLED, 0, uint32(i%2), 0)
			}
			puts(a, "blinked\r\n")
			exit(a, 0)
		}),
		stdApp("malloc_test01", func(a *rv32.Assembler) {
			// s2 = old break; sbrk(+256); store/load at old break.
			syscall(a, SVCMemop, MemopAppBreak, 0, 0, 0)
			a.Emit(rv32.Add{Rd: rv32.S2, Rs1: rv32.A0, Rs2: rv32.Zero})
			syscall(a, SVCMemop, MemopSbrk, 256, 0, 0)
			a.Emit(rv32.Li{Rd: rv32.T0, Imm: 0xAB}).
				Emit(rv32.Sb{Rs2: rv32.T0, Rs1: rv32.S2, Off: 0}).
				Emit(rv32.Lbu{Rd: rv32.T1, Rs1: rv32.S2, Off: 0})
			a.BTo(rv32.BNE, rv32.T0, rv32.T1, "fail")
			puts(a, "malloc01 ok\r\n")
			exit(a, 0)
			a.Label("fail")
			puts(a, "malloc01 FAIL\r\n")
			exit(a, 1)
		}),
		stdApp("timer_test", func(a *rv32.Assembler) {
			syscall(a, SVCCommand, DriverAlarm, 1, 3000, 0)
			a.Emit(rv32.Li{Rd: rv32.A7, Imm: SVCYield}).Emit(rv32.Ecall{})
			puts(a, "timer fired\r\n")
			exit(a, 0)
		}),
		stdApp("grant_test", func(a *rv32.Assembler) {
			syscall(a, SVCCommand, DriverGrant, 0, 64, 0)
			a.BTo(rv32.BNE, rv32.A0, rv32.Zero, "fail")
			puts(a, "grants ok\r\n")
			exit(a, 0)
			a.Label("fail")
			puts(a, "grants FAIL\r\n")
			exit(a, 1)
		}),
		stdApp("stack_growth", func(a *rv32.Assembler) {
			puts(a, "growing stack\r\n")
			a.Label("loop")
			a.Emit(rv32.Addi{Rd: rv32.SP, Rs1: rv32.SP, Imm: -16}).
				Emit(rv32.Sw{Rs2: rv32.RA, Rs1: rv32.SP, Off: 0})
			a.JTo("loop")
		}),
		stdApp("whileone", func(a *rv32.Assembler) {
			a.Label("loop")
			a.Emit(rv32.Addi{Rd: rv32.S2, Rs1: rv32.S2, Imm: 1})
			a.JTo("loop")
		}),
		stdApp("exit_test", func(a *rv32.Assembler) {
			puts(a, "exiting with code 7\r\n")
			exit(a, 7)
		}),
	}
}

// CampaignRow summarizes one app run on one chip.
type CampaignRow struct {
	Chip   string
	App    string
	State  kcore.State
	Output string
}

// Completed reports whether the app ran to its expected completion:
// exited normally, or — for the two deliberately non-terminating /
// faulting tests — reached the expected terminal condition.
func (r CampaignRow) Completed() bool {
	switch r.App {
	case "stack_growth":
		return r.State == StateFaulted && strings.Contains(r.Output, "panic:")
	case "whileone":
		return r.State == StateReady // preempted forever, never wedged
	default:
		return r.State == StateExited
	}
}

// RunCampaign runs the release subset on one chip.
func RunCampaign(chip riscv.ChipConfig) ([]CampaignRow, error) {
	var rows []CampaignRow
	for _, app := range ReleaseSubset() {
		k, err := New(chip)
		if err != nil {
			return nil, err
		}
		p, err := k.LoadProcess(app)
		if err != nil {
			return nil, fmt.Errorf("rvkernel campaign %s/%s: %w", chip.Name, app.Name, err)
		}
		quanta := 2000
		if app.Name == "whileone" {
			quanta = 30
		}
		if _, err := k.Run(quanta); err != nil {
			return nil, fmt.Errorf("rvkernel campaign %s/%s: %w", chip.Name, app.Name, err)
		}
		rows = append(rows, CampaignRow{
			Chip:   chip.Name,
			App:    app.Name,
			State:  p.State,
			Output: k.Output(p),
		})
	}
	return rows, nil
}

// RunAllChips runs the campaign on every supported chip.
func RunAllChips() ([]CampaignRow, error) {
	var all []CampaignRow
	for _, chip := range riscv.Chips {
		rows, err := RunCampaign(chip)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}
