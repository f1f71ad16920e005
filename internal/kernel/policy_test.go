package kernel

import (
	"strings"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/monolithic"
)

// crasher faults immediately by dereferencing a kernel address.
func crasher() App {
	return App{
		Name: "crasher", MinRAM: 6144, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitPuts(a, "boot\n")
			a.Emit(armv7m.MovImm{Rd: armv7m.R6, Imm: KernelDataBase}).
				Emit(armv7m.Ldr{Rt: armv7m.R7, Rn: armv7m.R6})
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
}

func TestRestartResetsBreakAndBuffers(t *testing.T) {
	// App grows its break, allows a buffer to the console driver, then
	// crashes. The restart path must reset the break to the initial
	// value and drop the allowed buffers before the second run.
	app := App{
		Name: "growcrash", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitSyscall4(a, SVCMemop, MemopSbrk, 1024, 0, 0)
			// allow_ro(console, memoryStart+1536, 4): r0 of the initial
			// frame was clobbered by the sbrk return, so re-query it.
			emitSyscall4(a, SVCMemop, MemopMemoryStart, 0, 0, 0)
			a.Emit(armv7m.AddImm{Rd: armv7m.R1, Rn: armv7m.R0, Imm: 1536}).
				Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: DriverConsole}).
				Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 4}).
				Emit(armv7m.SVC{Imm: SVCAllowRO})
			a.Emit(armv7m.MovImm{Rd: armv7m.R6, Imm: KernelDataBase}).
				Emit(armv7m.Ldr{Rt: armv7m.R7, Rn: armv7m.R6}) // fault
			return a.MustAssemble()
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock, FaultPolicy: PolicyRestart, MaxRestarts: 1})
	p := load(t, k, app)
	initial := p.MM.Layout().AppBreak

	// Run quanta until the first fault+restart happens (each syscall is
	// its own quantum), then observe the freshly-restarted state.
	for i := 0; p.Restarts == 0 && i < 50; i++ {
		if _, err := k.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Restarts != 1 || p.State != StateReady {
		t.Fatalf("after first fault: restarts=%d state=%v", p.Restarts, p.State)
	}
	if got := p.MM.Layout().AppBreak; got != initial {
		t.Fatalf("break not reset: 0x%x != 0x%x", got, initial)
	}
	if len(p.AllowedRO)+len(p.AllowedRW) != 0 {
		t.Fatalf("buffers survived restart: %v %v", p.AllowedRO, p.AllowedRW)
	}
	// Run to the end: it faults again and stays dead.
	run(t, k)
	if p.State != StateFaulted || p.Restarts != 1 {
		t.Fatalf("final: state=%v restarts=%d", p.State, p.Restarts)
	}
}

func TestFaultReportIncludesMMFAR(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, evilApp())
	run(t, k)
	out := k.Output(p)
	if !strings.Contains(out, "mmfar: 0x20030000") {
		t.Fatalf("fault report missing MMFAR: %q", out)
	}
	if !strings.Contains(out, "daccviol=true") {
		t.Fatalf("fault report missing DACCVIOL: %q", out)
	}
}

func TestAlarmStateLivesInGrant(t *testing.T) {
	app := App{
		Name: "alarmgrant", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitSyscall4(a, SVCCommand, DriverAlarm, 1, 4000, 0)
			a.Emit(armv7m.SVC{Imm: SVCYield})
			emitPuts(a, "woke")
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, app)
	run(t, k)
	if k.Output(p) != "woke" {
		t.Fatalf("output=%q state=%v", k.Output(p), p.State)
	}
	// The grant was allocated and holds the deadline the process slept
	// until.
	if p.alarmGrant == 0 {
		t.Fatal("alarm grant not allocated")
	}
	wake, ok := k.alarmGrantState(p)
	if !ok || wake == 0 {
		t.Fatalf("grant state=%d ok=%v", wake, ok)
	}
	layout := p.MM.Layout()
	if p.alarmGrant < layout.KernelBreak || p.alarmGrant >= layout.MemoryEnd() {
		t.Fatalf("alarm grant 0x%x outside grant region", p.alarmGrant)
	}
	// allocate_grant was exercised through the instrumented path.
	if k.Stats.Get("allocate_grant").Count == 0 {
		t.Fatal("allocate_grant not instrumented for alarm grant")
	}
}

func TestUserCannotTamperWithAlarmGrant(t *testing.T) {
	// The process arms an alarm, then tries to overwrite the grant
	// region where the deadline lives; the MPU must fault it.
	app := App{
		Name: "tamper", MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitSyscall4(a, SVCCommand, DriverAlarm, 1, 1000000, 0)
			// memop(3) -> app break; grant is above the unused gap; probe
			// the very top of our block: memoryStart + (free) + ... use
			// kernel break = appBreak + grantfree.
			emitSyscall4(a, SVCMemop, MemopAppBreak, 0, 0, 0)
			a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
			emitSyscall4(a, SVCMemop, MemopGrantFree, 0, 0, 0)
			a.Emit(armv7m.Add{Rd: armv7m.R4, Rn: armv7m.R4, Rm: armv7m.R0}).
				Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 0}).
				Emit(armv7m.Str{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 8}) // inside grant region
			emitPuts(a, "UNREACHABLE")
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, app)
	run(t, k)
	if p.State != StateFaulted {
		t.Fatalf("state=%v output=%q", p.State, k.Output(p))
	}
	if strings.Contains(k.Output(p), "UNREACHABLE") {
		t.Fatal("tamper reached past the grant write")
	}
	// The deadline survives untampered.
	if wake, ok := k.alarmGrantState(p); !ok || wake == 0 {
		t.Fatalf("grant state lost: %d %v", wake, ok)
	}
}

// grantOverlapReader reads the first grant byte (appBreak + grantFree).
func grantOverlapReader(minRAM, initRAM, hint uint32) App {
	return App{
		Name: "grantreader", MinRAM: minRAM, InitRAM: initRAM, Stack: 512, KernelHint: hint,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitSyscall4(a, SVCMemop, MemopAppBreak, 0, 0, 0)
			a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
			emitSyscall4(a, SVCMemop, MemopGrantFree, 0, 0, 0)
			a.Emit(armv7m.Add{Rd: armv7m.R4, Rn: armv7m.R4, Rm: armv7m.R0}).
				Emit(armv7m.Ldr{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
			emitPuts(a, "ESCAPED")
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
}

func TestGrantOverlapBugEndToEnd(t *testing.T) {
	// tock#4366 through the full kernel stack: find a geometry where the
	// buggy monolithic kernel lets the process read grant memory, then
	// show the fixed baseline and TickTock both fault the same program.
	var minRAM, initRAM, hint uint32
	run := func(opts Options, min, init, h uint32) (State, string) {
		k := newTestKernel(t, opts)
		p, err := k.LoadProcess(grantOverlapReader(min, init, h))
		if err != nil {
			return StateFaulted, "load: " + err.Error()
		}
		if _, err := k.Run(500); err != nil {
			t.Fatal(err)
		}
		return p.State, k.Output(p)
	}

	buggy := Options{Flavour: FlavourTock, Bugs: monolithic.BugSet{GrantOverlap: true}}
	for _, init := range []uint32{1600, 2048, 2496, 3008, 3520} {
		for _, h := range []uint32{340, 520, 1000, 1200} {
			st, out := run(buggy, init+h, init, h)
			if st == StateExited && strings.Contains(out, "ESCAPED") {
				minRAM, initRAM, hint = init+h, init, h
			}
		}
	}
	if minRAM == 0 {
		t.Fatal("no overlap geometry found — bug reproduction regressed")
	}

	if st, out := run(Options{Flavour: FlavourTock}, minRAM, initRAM, hint); st != StateFaulted || strings.Contains(out, "ESCAPED") {
		t.Fatalf("fixed Tock: state=%v out=%q", st, out)
	}
	if st, out := run(Options{Flavour: FlavourTickTock}, minRAM, initRAM, hint); st != StateFaulted || strings.Contains(out, "ESCAPED") {
		t.Fatalf("TickTock: state=%v out=%q", st, out)
	}
}

func TestEnterGrantScopedAccess(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	p := load(t, k, helloApp("g", "x"))
	addr, err := p.MM.AllocateGrant(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.EnterGrant(p, addr, 16, func(b []byte) error {
		for i := range b {
			b[i] = byte(i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Mutations persisted.
	if err := k.EnterGrant(p, addr, 16, func(b []byte) error {
		if b[5] != 5 {
			t.Fatalf("grant byte 5 = %d", b[5])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Spans outside the grant region are rejected.
	layout := p.MM.Layout()
	if err := k.EnterGrant(p, layout.MemoryStart, 16, func([]byte) error { return nil }); err == nil {
		t.Fatal("EnterGrant accepted process RAM")
	}
	if err := k.EnterGrant(p, layout.MemoryEnd()-8, 16, func([]byte) error { return nil }); err == nil {
		t.Fatal("EnterGrant accepted span past block end")
	}
}

func TestProcessTable(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	load(t, k, helloApp("one", "1"))
	load(t, k, helloApp("two", "2"))
	run(t, k)
	tab := k.ProcessTable()
	if len(tab) != 2 {
		t.Fatalf("rows=%d", len(tab))
	}
	if tab[0].Name != "one" || tab[1].Name != "two" {
		t.Fatalf("names: %s %s", tab[0].Name, tab[1].Name)
	}
	for _, r := range tab {
		if r.State != StateExited || r.Layout.MemorySize == 0 {
			t.Fatalf("row=%+v", r)
		}
	}
}

// runaway loops forever without ever issuing a syscall — the workload
// the software watchdog exists for.
func runaway() App {
	return App{
		Name: "runaway", MinRAM: 6144, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			a.Label("spin")
			a.Emit(armv7m.Add{Rd: armv7m.R4, Rn: armv7m.R4, Rm: armv7m.R4})
			a.BTo(armv7m.AL, "spin")
			return a.MustAssemble()
		},
	}
}
