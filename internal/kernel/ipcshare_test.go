package kernel

import (
	"strings"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/mpu"
)

// shareService writes a secret into its RAM, shares its memory with
// process 1, wakes it, and parks.
func shareService() App {
	return App{
		Name: "service", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			// [memoryStart+1700] = 'S'
			a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
				Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1700}).
				Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 'S'}).
				Emit(armv7m.Strb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
			// share with process 1
			emitSyscall4(a, SVCCommand, DriverIPC, 1, 1, 0)
			a.Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: RetSuccess})
			a.BTo(armv7m.NE, "fail")
			emitPuts(a, "shared ")
			emitExit(a, 0)
			a.Label("fail")
			emitPuts(a, "share FAIL")
			emitExit(a, 1)
			return a.MustAssemble()
		},
	}
}

// shareClient waits, then reads the given address (inside the service's
// shared RAM) directly through the mapped region.
func shareClient(secretAddr uint32) App {
	return App{
		Name: "client", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			// Let the service run first.
			emitSyscall4(a, SVCCommand, DriverAlarm, 1, 50000, 0)
			a.Emit(armv7m.SVC{Imm: SVCYield})
			a.Emit(armv7m.MovImm{Rd: armv7m.R4, Imm: secretAddr}).
				Emit(armv7m.Ldrb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
			PutcharRegLocal(a)
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
}

// PutcharRegLocal prints the low byte of r5.
func PutcharRegLocal(a *armv7m.Assembler) {
	a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverConsole}).
		Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: 0}).
		Emit(armv7m.MovReg{Rd: armv7m.R2, Rm: armv7m.R5}).
		Emit(armv7m.SVC{Imm: SVCCommand})
}

func TestIPCShareGrantsDirectAccess(t *testing.T) {
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		t.Run(fl.String(), func(t *testing.T) {
			k := newTestKernel(t, Options{Flavour: fl})
			svc := load(t, k, shareService())
			cli := load(t, k, shareClient(svc.MM.Layout().MemoryStart+1700))
			run(t, k)
			if svc.State != StateExited || !strings.Contains(k.Output(svc), "shared") {
				t.Fatalf("service: state=%v out=%q", svc.State, k.Output(svc))
			}
			if cli.State != StateExited || k.Output(cli) != "S" {
				t.Fatalf("client: state=%v out=%q reason=%q", cli.State, k.Output(cli), cli.FaultReason)
			}
		})
	}
}

func TestIPCNoShareMeansFault(t *testing.T) {
	// Without the share, the same direct read faults on both flavours:
	// the mapping is what makes it legal.
	noShare := App{
		Name: "noshare", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Emit(armv7m.MovImm{Rd: armv7m.R4, Imm: ProcessPoolBase + 1700}).
				Emit(armv7m.Ldrb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
			emitPuts(a, "UNREACHABLE")
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	for _, fl := range []Flavour{FlavourTickTock, FlavourTock} {
		t.Run(fl.String(), func(t *testing.T) {
			k := newTestKernel(t, Options{Flavour: fl})
			load(t, k, helloApp("occupant", "x")) // owns the first pool block
			snooper := load(t, k, noShare)
			run(t, k)
			if snooper.State != StateFaulted {
				t.Fatalf("state=%v out=%q", snooper.State, k.Output(snooper))
			}
		})
	}
}

func TestIPCUnshareRevokesAccess(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	svc := load(t, k, shareService())
	cli := load(t, k, shareClient(svc.MM.Layout().MemoryStart+1700))
	// Run until the share happened and the client read the byte.
	run(t, k)
	if k.Output(cli) != "S" {
		t.Fatalf("client never read: %q (%v)", k.Output(cli), cli.State)
	}
	// Revoke via the kernel API and confirm the hardware no longer
	// admits the client's access.
	if err := cli.MM.UnshareRegion(); err != nil {
		t.Fatal(err)
	}
	if err := cli.MM.ConfigureMPU(); err != nil {
		t.Fatal(err)
	}
	hw := k.Board.Machine.MPU
	if hw.Allows(svc.MM.Layout().MemoryStart+1700, readKind(), false) {
		t.Fatal("revoked mapping still admits access")
	}
}

func TestIPCShareRejectsBadTargets(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, helloApp("solo", "x"))
	// Sharing with yourself or a nonexistent process is invalid.
	if got := k.ipcCmd(p, 1, uint32(p.ID)); got != RetInvalid {
		t.Fatalf("self-share ret=%#x", got)
	}
	if got := k.ipcCmd(p, 1, 99); got != RetInvalid {
		t.Fatalf("bad target ret=%#x", got)
	}
}

// readKind avoids importing mpu in this file for one constant.
func readKind() mpu.AccessKind { return mpu.AccessRead }
