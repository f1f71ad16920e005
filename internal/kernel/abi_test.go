package kernel

import (
	"fmt"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/rvkernel"
)

// The syscall ABI is kcore's, served alike on both ports. Each row of
// abiCases is one syscall: the test program issues the row's class, the
// SyscallArgs hook substitutes arguments computed from the process's
// layout, and the SyscallRet hook records the return value next to the
// row's expectation, read from the layout after the call.

type abiCase struct {
	name  string
	class uint32
	args  func(l Layout) [4]uint32
	want  func(l Layout) uint32
}

func abiArgs(a ...uint32) func(Layout) [4]uint32 {
	var out [4]uint32
	copy(out[:], a)
	return func(Layout) [4]uint32 { return out }
}

func abiRet(v uint32) func(Layout) uint32 { return func(Layout) uint32 { return v } }

var abiCases = []abiCase{
	{"allow-ro valid span", SVCAllowRO, func(l Layout) [4]uint32 { return [4]uint32{DriverConsole, l.MemoryStart, 16} }, abiRet(RetSuccess)},
	{"console read clamped to the allowed length", SVCCommand, abiArgs(DriverConsole, 1, 100), abiRet(16)},
	{"allow-ro zero-length revoke", SVCAllowRO, abiArgs(DriverConsole, 0, 0), abiRet(RetSuccess)},
	{"console read after revoke", SVCCommand, abiArgs(DriverConsole, 1, 4), abiRet(RetInvalid)},
	{"allow-rw invalid span", SVCAllowRW, func(l Layout) [4]uint32 { return [4]uint32{DriverConsole, l.KernelBreak, 16} }, abiRet(RetInvalid)},
	{"brk in range", SVCMemop, func(l Layout) [4]uint32 { return [4]uint32{MemopBrk, l.AppBreak + 256} }, abiRet(RetSuccess)},
	{"brk out of range", SVCMemop, func(l Layout) [4]uint32 { return [4]uint32{MemopBrk, l.MemoryEnd()} }, abiRet(RetInvalid)},
	{"sbrk in range", SVCMemop, abiArgs(MemopSbrk, 256), func(l Layout) uint32 { return l.AppBreak }},
	{"sbrk out of range", SVCMemop, abiArgs(MemopSbrk, 1<<20), abiRet(RetInvalid)},
	{"memop memory start", SVCMemop, abiArgs(MemopMemoryStart), func(l Layout) uint32 { return l.MemoryStart }},
	{"memop app break", SVCMemop, abiArgs(MemopAppBreak), func(l Layout) uint32 { return l.AppBreak }},
	{"memop flash start", SVCMemop, abiArgs(MemopFlashStart), func(l Layout) uint32 { return l.FlashStart }},
	{"memop flash size", SVCMemop, abiArgs(MemopFlashSize), func(l Layout) uint32 { return l.FlashSize }},
	{"memop grant free", SVCMemop, abiArgs(MemopGrantFree), func(l Layout) uint32 { return l.UnusedSize() }},
	{"unknown memop", SVCMemop, abiArgs(99), abiRet(RetInvalid)},
	{"grant", SVCCommand, abiArgs(DriverGrant, 0, 16), abiRet(RetSuccess)},
	{"oversize grant", SVCCommand, abiArgs(DriverGrant, 0, 1<<20), abiRet(RetNoMem)},
	{"LED on", SVCCommand, abiArgs(DriverLED, 1, 0), abiRet(RetSuccess)},
	{"LED index out of range", SVCCommand, abiArgs(DriverLED, 1, 4), abiRet(RetInvalid)},
	{"LED command out of range", SVCCommand, abiArgs(DriverLED, 3, 0), abiRet(RetInvalid)},
	{"temperature command out of range", SVCCommand, abiArgs(DriverTemp, 1), abiRet(RetInvalid)},
	{"unknown driver", SVCCommand, abiArgs(99), abiRet(RetInvalid)},
	{"unknown class", 9, abiArgs(), abiRet(RetInvalid)},
	{"yield without an alarm", SVCYield, abiArgs(), abiRet(RetSuccess)},
}

// abiProbe is the hook pair's state: the next row, and each row's return
// value next to the one it expects.
type abiProbe struct {
	next      int
	got, want []uint32
}

func (pr *abiProbe) args(class uint32, args [4]uint32, l Layout) [4]uint32 {
	if class == SVCExit {
		return args
	}
	return abiCases[pr.next].args(l)
}

func (pr *abiProbe) ret(ret uint32, l Layout) uint32 {
	pr.got = append(pr.got, ret)
	pr.want = append(pr.want, abiCases[pr.next].want(l))
	pr.next++
	return ret
}

// runARMProbe runs abiCases on the ARM port and returns the process's
// final state and the kernel's syscall error count.
func runARMProbe(t *testing.T, fl Flavour, pr *abiProbe) (State, uint64) {
	k := newTestKernel(t, Options{Flavour: fl, Hooks: FaultHooks{
		SyscallArgs: func(p *Process, class uint8, args [4]uint32) [4]uint32 {
			return pr.args(uint32(class), args, p.MM.Layout())
		},
		SyscallRet: func(p *Process, _ uint8, ret uint32) uint32 { return pr.ret(ret, p.MM.Layout()) },
	}})
	p := load(t, k, App{
		Name: "abi", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			for _, c := range abiCases {
				a.Emit(armv7m.SVC{Imm: uint8(c.class)})
			}
			emitExit(a, 0)
			return a.MustAssemble()
		},
	})
	run(t, k)
	return p.State, k.SyscallErrors
}

// runRVProbe runs abiCases on the RISC-V port.
func runRVProbe(t *testing.T, chip riscv.ChipConfig, pr *abiProbe) (State, uint64) {
	k, err := rvkernel.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	layout := func(p *rvkernel.Process) Layout {
		b := p.Alloc.Breaks()
		return Layout{
			MemoryStart: b.MemoryStart(), MemorySize: b.MemorySize(),
			AppBreak: b.AppBreak(), KernelBreak: b.KernelBreak(),
			FlashStart: b.FlashStart(), FlashSize: b.FlashSize(),
		}
	}
	k.Hooks.SyscallArgs = func(p *rvkernel.Process, class uint32, args [4]uint32) [4]uint32 {
		return pr.args(class, args, layout(p))
	}
	k.Hooks.SyscallRet = func(p *rvkernel.Process, _ uint32, ret uint32) uint32 { return pr.ret(ret, layout(p)) }
	p, err := k.LoadProcess(rvApp("abi", func(a *rv32.Assembler) {
		for _, c := range abiCases {
			a.Emit(rv32.Li{Rd: rv32.A7, Imm: c.class}).Emit(rv32.Ecall{})
		}
		rvExit(a)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(10000); err != nil {
		t.Fatal(err)
	}
	return p.State, k.SyscallErrors
}

// TestSyscallABIParity pins the return value of each shared syscall
// path on the ARM port (both flavours) and on the RISC-V port (every
// chip), and that each port counts the same error returns.
func TestSyscallABIParity(t *testing.T) {
	type port struct {
		name string
		run  func(t *testing.T, pr *abiProbe) (State, uint64)
	}
	var ports []port
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		ports = append(ports, port{"armv7m-" + fl.String(), func(t *testing.T, pr *abiProbe) (State, uint64) { return runARMProbe(t, fl, pr) }})
	}
	for _, chip := range riscv.Chips {
		ports = append(ports, port{"rv32-" + chip.Name, func(t *testing.T, pr *abiProbe) (State, uint64) { return runRVProbe(t, chip, pr) }})
	}
	for _, port := range ports {
		t.Run(port.name, func(t *testing.T) {
			pr := &abiProbe{}
			state, syscallErrors := port.run(t, pr)
			if state != StateExited || len(pr.got) != len(abiCases) {
				t.Fatalf("state=%v after %d of %d syscalls", state, len(pr.got), len(abiCases))
			}
			var errs uint64
			for i, c := range abiCases {
				if pr.got[i] != pr.want[i] {
					t.Errorf("%s: returned %s, want %s", c.name, abiValue(pr.got[i]), abiValue(pr.want[i]))
				}
				switch pr.got[i] {
				case RetFail, RetInvalid, RetNoMem:
					errs++
				}
			}
			if syscallErrors != errs {
				t.Errorf("SyscallErrors=%d, want %d", syscallErrors, errs)
			}
		})
	}
}

func abiValue(v uint32) string {
	switch v {
	case RetFail:
		return "RetFail"
	case RetInvalid:
		return "RetInvalid"
	case RetNoMem:
		return "RetNoMem"
	}
	return fmt.Sprintf("0x%x", v)
}
