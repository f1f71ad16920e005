package kernel

import (
	"strings"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/kcore"
	"ticktock/internal/trace"
)

func TestSubscribeAndUpcallDelivery(t *testing.T) {
	// Two-pass build: first assemble to locate the callback label, then
	// patch the subscribe argument.
	var cbAddr uint32
	app := App{
		Name: "subscriber", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *armv7m.Program {
			build := func(cb uint32) (*armv7m.Program, uint32) {
				a := armv7m.NewAssembler(base)
				a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverAlarm}).
					Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: cb}).
					Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 'U'}).
					Emit(armv7m.SVC{Imm: SVCSubscribe})
				a.Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: RetSuccess})
				a.BTo(armv7m.NE, "fail")
				emitSyscall4(a, SVCCommand, DriverAlarm, 1, 4000, 0)
				a.Emit(armv7m.SVC{Imm: SVCYield})
				emitPuts(a, "+after")
				emitExit(a, 0)
				a.Label("fail")
				emitPuts(a, "subscribe-failed")
				emitExit(a, 1)
				a.Label("callback")
				// Print the userdata that arrived in r3.
				a.Emit(armv7m.MovReg{Rd: armv7m.R7, Rm: armv7m.R3})
				emitPuts(a, "<cb")
				a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverConsole}).
					Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: 0}).
					Emit(armv7m.MovReg{Rd: armv7m.R2, Rm: armv7m.R7}).
					Emit(armv7m.SVC{Imm: SVCCommand})
				emitPuts(a, ">")
				a.Emit(armv7m.BXLR{})
				prog := a.MustAssemble()
				// Recover the label address via a second assembler pass.
				probe := armv7m.NewAssembler(base)
				probe.Label("x")
				return prog, base + uint32(4*(len(prog.Instrs)-10))
			}
			// First pass with cb=0 to learn the layout, second with the
			// real address. The callback starts 10 instructions from the
			// end (movreg + "<cb" puts(3 chars*5) ... computed directly
			// below instead).
			p, _ := build(0)
			// callback index: total - (1 movreg + 15 puts("<cb") + 4 putreg + 5 puts(">") + 1 bxlr)
			cbIdx := len(p.Instrs) - (1 + 3*5 + 4 + 1*5 + 1)
			cbAddr = base + uint32(4*cbIdx)
			p, _ = build(cbAddr)
			return p
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, app)
	run(t, k)
	out := k.Output(p)
	if p.State != StateExited {
		t.Fatalf("state=%v reason=%q out=%q", p.State, p.FaultReason, out)
	}
	// The callback ran (printing its userdata 'U') before the yield
	// completed.
	if out != "<cbU>+after" {
		t.Fatalf("out=%q, want %q", out, "<cbU>+after")
	}
}

func TestSubscribeRejectsNonFlashCallback(t *testing.T) {
	// Callback pointers into RAM or kernel space must be rejected — the
	// kernel will never branch a process to memory the process could
	// not execute itself.
	app := App{
		Name: "badsub", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			// subscribe(alarm, RAM address, 0) -> EINVAL
			a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverAlarm}).
				Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: 0x2000_2000}).
				Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 0}).
				Emit(armv7m.SVC{Imm: SVCSubscribe}).
				Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: RetInvalid})
			a.BTo(armv7m.NE, "fail")
			// subscribe(alarm, kernel address, 0) -> EINVAL
			a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverAlarm}).
				Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: KernelDataBase}).
				Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 0}).
				Emit(armv7m.SVC{Imm: SVCSubscribe}).
				Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: RetInvalid})
			a.BTo(armv7m.NE, "fail")
			emitPuts(a, "denied")
			emitExit(a, 0)
			a.Label("fail")
			emitPuts(a, "FAIL")
			emitExit(a, 1)
			return a.MustAssemble()
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, app)
	run(t, k)
	if k.Output(p) != "denied" {
		t.Fatalf("out=%q", k.Output(p))
	}
}

func TestUpcallStubMisuseIsHarmless(t *testing.T) {
	// A process invoking SVC #UpcallDone without a live upcall gets an
	// error, not a corrupted stack, and the kernel books it as it books
	// any invalid syscall: the trace's exit event and the error counter
	// agree with the r0 the process sees.
	app := App{
		Name: "stubmisuse", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Emit(armv7m.SVC{Imm: SVCUpcallDone}).
				Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: RetInvalid})
			a.BTo(armv7m.NE, "fail")
			emitPuts(a, "ok")
			emitExit(a, 0)
			a.Label("fail")
			emitPuts(a, "FAIL")
			emitExit(a, 1)
			return a.MustAssemble()
		},
	}
	tr := trace.New(0)
	k := newTestKernel(t, Options{Flavour: FlavourTickTock, Observe: kcore.Observe{Trace: tr}})
	p := load(t, k, app)
	run(t, k)
	if k.Output(p) != "ok" {
		t.Fatalf("out=%q state=%v", k.Output(p), p.State)
	}
	if k.SyscallErrors != 1 {
		t.Fatalf("SyscallErrors=%d, want 1", k.SyscallErrors)
	}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindSyscallExit && e.A == SVCUpcallDone {
			if e.B != RetInvalid {
				t.Fatalf("upcall-done exit event reports ret %#x, want %#x", e.B, RetInvalid)
			}
			return
		}
	}
	t.Fatal("no upcall-done exit event")
}

func TestUnsubscribe(t *testing.T) {
	// Subscribe then unsubscribe: the wake must not deliver a callback.
	app := App{
		Name: "unsub", MinRAM: 8192, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			// subscribe with the entry point as a (valid) callback.
			a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverAlarm}).
				Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: base}).
				Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 0}).
				Emit(armv7m.SVC{Imm: SVCSubscribe})
			// unsubscribe (fn=0).
			a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverAlarm}).
				Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: 0}).
				Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 0}).
				Emit(armv7m.SVC{Imm: SVCSubscribe})
			emitSyscall4(a, SVCCommand, DriverAlarm, 1, 2000, 0)
			a.Emit(armv7m.SVC{Imm: SVCYield})
			emitPuts(a, "no-callback")
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, app)
	run(t, k)
	// If the (looping) callback had been delivered, output would differ
	// or the process would never exit.
	if k.Output(p) != "no-callback" || p.State != StateExited {
		t.Fatalf("out=%q state=%v", k.Output(p), p.State)
	}
}

func TestUpcallFrameSitsOnProcessStack(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, helloApp("x", "y"))
	// Manually subscribe and deliver to inspect the mechanics.
	p.Upcalls[DriverAlarm] = Upcall{Fn: p.Entry, Userdata: 0xAB}
	before := p.PSP
	if ok, err := k.deliverUpcall(p, DriverAlarm, 1, 2); err != nil || !ok {
		t.Fatalf("deliverUpcall with subscription present: ok=%v err=%v", ok, err)
	}
	if p.PSP >= before {
		t.Fatal("upcall frame not pushed")
	}
	f, err := k.Board.Machine.ReadFrame(p.PSP)
	if err != nil {
		t.Fatal(err)
	}
	if f.ReturnAddr != p.Entry || f.R3 != 0xAB || f.R0 != 1 || f.R1 != 2 {
		t.Fatalf("frame=%+v", f)
	}
	if f.LR != p.upcallStub {
		t.Fatalf("LR=0x%x, want stub 0x%x", f.LR, p.upcallStub)
	}
	layout := p.MM.Layout()
	if p.PSP < layout.MemoryStart || p.PSP >= layout.AppBreak {
		t.Fatal("upcall frame outside process-accessible RAM")
	}
}

func TestScheduleUpcallWithoutSubscription(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, helloApp("x", "y"))
	before := p.PSP
	if ok, err := k.deliverUpcall(p, DriverAlarm, 0, 0); ok || err != nil || p.PSP != before {
		t.Fatalf("deliverUpcall without subscription: ok=%v err=%v psp 0x%x -> 0x%x", ok, err, before, p.PSP)
	}
	if strings.Contains(k.Output(p), "panic") {
		t.Fatal("unexpected fault")
	}
}
