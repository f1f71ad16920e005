package rvkernel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ticktock/internal/kcore"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
)

func TestHelloOnAllChips(t *testing.T) {
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.LoadProcess(ReleaseSubset()[0]) // c_hello
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(1000); err != nil {
				t.Fatal(err)
			}
			if p.State != StateExited {
				t.Fatalf("state=%v reason=%q", p.State, p.FaultReason)
			}
			if got := k.Output(p); got != "Hello World!\r\n" {
				t.Fatalf("output=%q", got)
			}
		})
	}
}

func TestQemuStyleCampaignAllChips(t *testing.T) {
	rows, err := RunAllChips()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(ReleaseSubset()) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if !r.Completed() {
			t.Errorf("%s/%s did not complete: state=%v output=%q", r.Chip, r.App, r.State, r.Output)
		}
	}
	// Pure-print tests must produce identical output on every chip.
	outByApp := map[string]map[string]bool{}
	for _, r := range rows {
		if outByApp[r.App] == nil {
			outByApp[r.App] = map[string]bool{}
		}
		outByApp[r.App][r.Output] = true
	}
	for _, app := range []string{"c_hello", "blink", "malloc_test01", "grant_test", "exit_test"} {
		if len(outByApp[app]) != 1 {
			t.Errorf("%s output differs across chips: %v", app, outByApp[app])
		}
	}
}

func TestCrossISAOutputsMatchARM(t *testing.T) {
	// The deterministic print-only tests must produce the same console
	// output on the RISC-V port as on the ARM kernel — same apps, same
	// kernel semantics, different ISA.
	rows, err := RunCampaign(riscv.ChipHiFive1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"c_hello":   "Hello World!\r\n",
		"exit_test": "exiting with code 7\r\n",
	}
	for _, r := range rows {
		if w, ok := want[r.App]; ok && r.Output != w {
			t.Errorf("%s: output %q != ARM output %q", r.App, r.Output, w)
		}
	}
}

func TestRVProcessIsolation(t *testing.T) {
	// An evil RISC-V app trying to write kernel RAM must fault on every
	// chip, and kernel memory must stay clean.
	evil := stdApp("evil", func(a *rv32.Assembler) {
		a.Emit(rv32.Li{Rd: rv32.T0, Imm: KernelDataBase}).
			Emit(rv32.Li{Rd: rv32.T1, Imm: 0x42}).
			Emit(rv32.Sw{Rs2: rv32.T1, Rs1: rv32.T0, Off: 0})
		puts(a, "ESCAPED")
		exit(a, 0)
	})
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.LoadProcess(evil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(1000); err != nil {
				t.Fatal(err)
			}
			if p.State != StateFaulted {
				t.Fatalf("state=%v output=%q", p.State, k.Output(p))
			}
			if strings.Contains(k.Output(p), "ESCAPED") {
				t.Fatal("evil ran past the kernel write")
			}
			v, _ := k.Machine.Mem.ReadWord(KernelDataBase)
			if v != 0 {
				t.Fatal("kernel memory corrupted")
			}
		})
	}
}

func TestRVProcessCannotReadAnotherProcess(t *testing.T) {
	snoop := stdApp("snoop", func(a *rv32.Assembler) {
		// a0 (initial) = memoryStart; probe 0x1000 below it.
		a.Emit(rv32.Li{Rd: rv32.T0, Imm: 0x1000}).
			Emit(rv32.Sub{Rd: rv32.T1, Rs1: rv32.A0, Rs2: rv32.T0}).
			Emit(rv32.Lw{Rd: rv32.T2, Rs1: rv32.T1, Off: 0})
		puts(a, "UNREACHABLE")
		exit(a, 1)
	})
	k, err := New(riscv.ChipLiteX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadProcess(ReleaseSubset()[0]); err != nil {
		t.Fatal(err)
	}
	p, err := k.LoadProcess(snoop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(2000); err != nil {
		t.Fatal(err)
	}
	if p.State != StateFaulted {
		t.Fatalf("snoop state=%v output=%q", p.State, k.Output(p))
	}
}

func TestRVBrkGrowsUsableMemory(t *testing.T) {
	app := stdApp("brk", func(a *rv32.Assembler) {
		syscall(a, kcore.SVCMemop, kcore.MemopAppBreak, 0, 0, 0)
		a.Emit(rv32.Add{Rd: rv32.S2, Rs1: rv32.A0, Rs2: rv32.Zero})
		syscall(a, kcore.SVCMemop, kcore.MemopSbrk, 512, 0, 0)
		a.Emit(rv32.Li{Rd: rv32.T0, Imm: 0x5A}).
			Emit(rv32.Sw{Rs2: rv32.T0, Rs1: rv32.S2, Off: 0}).
			Emit(rv32.Lw{Rd: rv32.T1, Rs1: rv32.S2, Off: 0})
		a.BTo(rv32.BNE, rv32.T0, rv32.T1, "fail")
		puts(a, "grown")
		exit(a, 0)
		a.Label("fail")
		puts(a, "FAIL")
		exit(a, 1)
	})
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.LoadProcess(app)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(1000); err != nil {
				t.Fatal(err)
			}
			if k.Output(p) != "grown" {
				t.Fatalf("output=%q state=%v reason=%q", k.Output(p), p.State, p.FaultReason)
			}
		})
	}
}

func TestRVPreemptionSharesCPU(t *testing.T) {
	k, err := New(riscv.ChipHiFive1)
	if err != nil {
		t.Fatal(err)
	}
	k.Timeslice = 500
	spinner := stdApp("spin", func(a *rv32.Assembler) {
		a.Label("loop")
		a.Emit(rv32.Addi{Rd: rv32.S2, Rs1: rv32.S2, Imm: 1})
		a.JTo("loop")
	})
	if _, err := k.LoadProcess(spinner); err != nil {
		t.Fatal(err)
	}
	polite, err := k.LoadProcess(ReleaseSubset()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if polite.State != StateExited {
		t.Fatalf("polite starved: %v", polite.State)
	}
	if k.Machine.Timer.Fired == 0 {
		t.Fatal("timer never fired")
	}
}

func TestRVMultipleProcessesIsolatedPools(t *testing.T) {
	k, err := New(riscv.ChipLiteX)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := k.LoadProcess(ReleaseSubset()[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.LoadProcess(ReleaseSubset()[7]) // exit_test
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := p1.Alloc.Breaks(), p2.Alloc.Breaks()
	if b1.MemoryEnd() > b2.MemoryStart() {
		t.Fatalf("process blocks overlap: %s / %s", b1, b2)
	}
	if _, err := k.Run(2000); err != nil {
		t.Fatal(err)
	}
	if k.Output(p1) != "Hello World!\r\n" || k.Output(p2) != "exiting with code 7\r\n" {
		t.Fatalf("outputs: %q / %q", k.Output(p1), k.Output(p2))
	}
}

func TestRVAllowAndConsoleBuffer(t *testing.T) {
	app := stdApp("rvallow", func(a *rv32.Assembler) {
		// Buffer at memoryStart+1600 (a0 of the initial context).
		a.Emit(rv32.Addi{Rd: rv32.S2, Rs1: rv32.A0, Imm: 1600})
		for i, ch := range []byte("rv!") {
			a.Emit(rv32.Li{Rd: rv32.T0, Imm: uint32(ch)}).
				Emit(rv32.Sb{Rs2: rv32.T0, Rs1: rv32.S2, Off: int32(i)})
		}
		// allow_ro(console, buf, 3)
		a.Emit(rv32.Li{Rd: rv32.A0, Imm: kcore.DriverConsole}).
			Emit(rv32.Add{Rd: rv32.A1, Rs1: rv32.S2, Rs2: rv32.Zero}).
			Emit(rv32.Li{Rd: rv32.A2, Imm: 3}).
			Emit(rv32.Li{Rd: rv32.A7, Imm: kcore.SVCAllowRO}).
			Emit(rv32.Ecall{})
		// command(console, 1, 3) -> print buffer
		syscall(a, kcore.SVCCommand, kcore.DriverConsole, 1, 3, 0)
		exit(a, 0)
	})
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.LoadProcess(app)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(1000); err != nil {
				t.Fatal(err)
			}
			if k.Output(p) != "rv!" {
				t.Fatalf("out=%q state=%v reason=%q", k.Output(p), p.State, p.FaultReason)
			}
		})
	}
}

func TestRVAllowRejectsKernelMemory(t *testing.T) {
	app := stdApp("rvbadallow", func(a *rv32.Assembler) {
		a.Emit(rv32.Li{Rd: rv32.A0, Imm: kcore.DriverConsole}).
			Emit(rv32.Li{Rd: rv32.A1, Imm: KernelDataBase}).
			Emit(rv32.Li{Rd: rv32.A2, Imm: 64}).
			Emit(rv32.Li{Rd: rv32.A7, Imm: kcore.SVCAllowRO}).
			Emit(rv32.Ecall{})
		a.Emit(rv32.Li{Rd: rv32.T0, Imm: kcore.RetInvalid})
		a.BTo(rv32.BNE, rv32.A0, rv32.T0, "fail")
		puts(a, "denied")
		exit(a, 0)
		a.Label("fail")
		puts(a, "FAIL")
		exit(a, 1)
	})
	k, err := New(riscv.ChipHiFive1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.LoadProcess(app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if k.Output(p) != "denied" {
		t.Fatalf("out=%q", k.Output(p))
	}
}

// loadAndRun boots a fresh kernel on the first chip, loads app and runs
// it to completion. It returns the Program mapped at the app's entry and
// a summary of the run: output, final state and simulated cycles.
func loadAndRun(app App) (*rv32.Program, string, error) {
	k, err := New(riscv.Chips[0])
	if err != nil {
		return nil, "", err
	}
	p, err := k.LoadProcess(app)
	if err != nil {
		return nil, "", err
	}
	if _, err := k.Run(100); err != nil {
		return nil, "", err
	}
	return k.Machine.ProgramAt(p.Entry),
		fmt.Sprintf("%q %s %d", k.Output(p), p.State, k.Machine.Meter.Cycles()), nil
}

// TestImageAssembledOncePerBase loads one App on two fresh kernels: its
// builder runs once, at the code base of the first flash slot, the
// second kernel maps the first one's Program, and the two runs agree.
func TestImageAssembledOncePerBase(t *testing.T) {
	builds := map[uint32]int{}
	app := stdApp("once", func(a *rv32.Assembler) {
		builds[a.PC()]++
		puts(a, "once\r\n")
		exit(a, 0)
	})
	var progs [2]*rv32.Program
	var runs [2]string
	for i := range progs {
		var err error
		if progs[i], runs[i], err = loadAndRun(app); err != nil {
			t.Fatal(err)
		}
	}
	entry := progs[0].Base
	if len(builds) != 1 || builds[entry] != 1 {
		t.Fatalf("builder calls by base = %v, want one at 0x%x", builds, entry)
	}
	if progs[1] != progs[0] {
		t.Fatal("the second kernel assembled its own Program")
	}
	if runs[0] != runs[1] || !strings.HasPrefix(runs[0], `"once\r\n" exited `) {
		t.Fatalf("runs differ or did not finish: %s vs %s", runs[0], runs[1])
	}
}

// TestImageSharedAcrossGoroutines has two kernels load and run one
// release app at once from a cold memo, the way campaign workers share
// the release subset; under -race it checks the memo and the shared
// Program.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	app := ReleaseSubset()[2] // malloc_test01
	var wg sync.WaitGroup
	var progs [2]*rv32.Program
	var runs [2]string
	var errs [2]error
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], runs[i], errs[i] = loadAndRun(app)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if progs[0] != progs[1] || runs[0] != runs[1] {
		t.Fatalf("concurrent loads differ: %p %s vs %p %s", progs[0], runs[0], progs[1], runs[1])
	}
}

// TestLoaderRebuildsWhenSlotMoves loads a small app and then a larger
// one on the NAPOT-only chip, whose power-of-two slots move the second
// image to a more aligned base than the loader's first build assumed:
// it builds again at the real base, which the mapped program starts at.
func TestLoaderRebuildsWhenSlotMoves(t *testing.T) {
	k, err := New(riscv.ChipESP32C3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadProcess(stdApp("small", func(a *rv32.Assembler) { exit(a, 0) })); err != nil {
		t.Fatal(err)
	}
	msg := strings.Repeat("b", 100)
	var bases []uint32
	big := App{Name: "big", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *rv32.Program {
			bases = append(bases, base)
			a := rv32.NewAssembler(base)
			puts(a, msg)
			exit(a, 0)
			return a.MustAssemble()
		}}
	p, err := k.LoadProcess(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(bases) != 2 || bases[0] == p.Entry || bases[1] != p.Entry {
		t.Fatalf("builds at %x, want one elsewhere and then one at the entry 0x%x", bases, p.Entry)
	}
	if prog := k.Machine.ProgramAt(p.Entry); prog == nil || prog.Base != p.Entry {
		t.Fatalf("no program based at the entry 0x%x", p.Entry)
	}
	if got := k.Output(p); got != msg {
		t.Fatalf("output %q", got)
	}
}
