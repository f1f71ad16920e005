// Package apps contains the release-test applications for the
// differential-testing campaign (paper §6.1): 21 test cases, each one or
// two user programs assembled for the ARMv7-M machine model, mirroring the
// Tock 2.2 release tests the paper ran on the NRF52840dk. Five cases are
// expected to produce different output between the Tock and TickTock
// kernels — the ones that print memory-layout details or cycle-dependent
// sensor readings — and the rest must match exactly.
package apps

import (
	"fmt"
	"sync/atomic"

	"ticktock/internal/armv7m"
	"ticktock/internal/blockcache"
	"ticktock/internal/kernel"
)

// TestCase is one differential test: a set of apps run together and an
// expectation about cross-kernel output equality.
type TestCase struct {
	Name string
	Apps []kernel.App
	// ExpectDiff marks the cases whose output legitimately differs
	// between kernels (layout prints, sensor readings).
	ExpectDiff bool
	// Quanta bounds the scheduler quanta for non-terminating cases.
	Quanta int
}

// Syscall emits a 4-argument syscall (args in r0..r3, class in the SVC
// immediate).
func Syscall(a *armv7m.Assembler, svc uint8, r0, r1, r2, r3 uint32) {
	a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: r0}).
		Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: r1}).
		Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: r2}).
		Emit(armv7m.MovImm{Rd: armv7m.R3, Imm: r3}).
		Emit(armv7m.SVC{Imm: svc})
}

// Puts emits console putchar calls for each byte of s.
func Puts(a *armv7m.Assembler, s string) {
	for _, ch := range s {
		Syscall(a, kernel.SVCCommand, kernel.DriverConsole, 0, uint32(ch), 0)
	}
}

// PutcharReg emits a console putchar of the low byte of rm.
func PutcharReg(a *armv7m.Assembler, rm armv7m.GPR) {
	a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverConsole}).
		Emit(armv7m.MovImm{Rd: armv7m.R1, Imm: 0}).
		Emit(armv7m.MovReg{Rd: armv7m.R2, Rm: rm}).
		Emit(armv7m.SVC{Imm: kernel.SVCCommand})
}

// hexSeq disambiguates PutHex labels within and across programs. It is
// atomic because the parallel campaign builds programs from several
// goroutines at once.
var hexSeq atomic.Int64

// PutHex emits code printing rm as 8 hex digits (clobbers r8-r11).
func PutHex(a *armv7m.Assembler, rm armv7m.GPR) {
	// r8 = value, r9 = shift counter (28,24,...0)
	a.Emit(armv7m.MovReg{Rd: armv7m.R8, Rm: rm}).
		Emit(armv7m.MovImm{Rd: armv7m.R9, Imm: 8})
	loop := fmt.Sprintf("hex_loop_%d", hexSeq.Add(1))
	done := loop + "_done"
	digit := loop + "_digit"
	a.Label(loop)
	a.Emit(armv7m.CmpImm{Rn: armv7m.R9, Imm: 0})
	a.BTo(armv7m.EQ, done)
	// r10 = (r8 >> 28) & 0xF
	a.Emit(armv7m.LsrImm{Rd: armv7m.R10, Rn: armv7m.R8, Shift: 28}).
		Emit(armv7m.MovImm{Rd: armv7m.R11, Imm: 0xF}).
		Emit(armv7m.And{Rd: armv7m.R10, Rn: armv7m.R10, Rm: armv7m.R11}).
		Emit(armv7m.CmpImm{Rn: armv7m.R10, Imm: 10})
	a.BTo(armv7m.GE, digit)
	a.Emit(armv7m.AddImm{Rd: armv7m.R10, Rn: armv7m.R10, Imm: '0'})
	a.BTo(armv7m.AL, loop+"_emit")
	a.Label(digit)
	a.Emit(armv7m.AddImm{Rd: armv7m.R10, Rn: armv7m.R10, Imm: 'a' - 10})
	a.Label(loop + "_emit")
	PutcharReg(a, armv7m.R10)
	a.Emit(armv7m.LslImm{Rd: armv7m.R8, Rn: armv7m.R8, Shift: 4}).
		Emit(armv7m.SubImm{Rd: armv7m.R9, Rn: armv7m.R9, Imm: 1})
	a.BTo(armv7m.AL, loop)
	a.Label(done)
}

// Exit emits the exit syscall.
func Exit(a *armv7m.Assembler, code uint32) {
	a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: code}).Emit(armv7m.SVC{Imm: kernel.SVCExit})
}

// stdApp wraps a builder with default RAM geometry. The app assembles
// its image once per load base: every kernel that loads it at a base
// already seen shares that Program, so a campaign's many short-lived
// kernels each pay for a TBF parse, not an assembly.
func stdApp(name string, build func(a *armv7m.Assembler)) kernel.App {
	images := new(blockcache.ProgramMemo[armv7m.Instr])
	return kernel.App{
		Name: name, MinRAM: 10240, InitRAM: 2048, Stack: 1024, KernelHint: 1024,
		Build: func(base uint32) *armv7m.Program {
			return images.Get(base, func(base uint32) *armv7m.Program {
				a := armv7m.NewAssembler(base)
				build(a)
				return a.MustAssemble()
			})
		},
	}
}

// printer returns an app that prints msg and exits.
func printer(name, msg string) kernel.App {
	return stdApp(name, func(a *armv7m.Assembler) {
		Puts(a, msg)
		Exit(a, 0)
	})
}

// Find returns the release-test case called name.
func Find(name string) (TestCase, bool) {
	for _, tc := range All() {
		if tc.Name == name {
			return tc, true
		}
	}
	return TestCase{}, false
}

// All returns the 21 release-test cases. The cases and their 22 apps
// share one allocation; each case's Apps is capped at its own apps, so
// an append to one case copies instead of overwriting its neighbour.
func All() []TestCase {
	set := new(struct {
		cases [21]TestCase
		apps  [22]kernel.App
	})
	n := 0
	caseApps := func(as ...kernel.App) []kernel.App {
		s := set.apps[n : n+len(as) : n+len(as)]
		n += copy(s, as)
		return s
	}
	set.cases = [21]TestCase{
		{Name: "c_hello", Apps: caseApps(printer("c_hello", "Hello World!\r\n"))},
		{Name: "blink", Apps: caseApps(blink())},
		{Name: "console_short", Apps: caseApps(printer("console_short", "short console test\r\n"))},
		{Name: "printf_long", Apps: caseApps(printfLong())},
		{Name: "sensors", Apps: caseApps(sensors()), ExpectDiff: true},
		{Name: "temperature", Apps: caseApps(temperature()), ExpectDiff: true},
		{Name: "malloc_test01", Apps: caseApps(mallocTest01())},
		{Name: "malloc_test02", Apps: caseApps(mallocTest02())},
		{Name: "stack_growth", Apps: caseApps(stackGrowth()), ExpectDiff: true},
		{Name: "mpu_walk_region", Apps: caseApps(mpuWalkRegion()), ExpectDiff: true},
		{Name: "memory_layout", Apps: caseApps(memoryLayout()), ExpectDiff: true},
		{Name: "whileone", Apps: caseApps(whileone()), Quanta: 40},
		{Name: "timer_test", Apps: caseApps(timerTest())},
		{Name: "multi_alarm", Apps: caseApps(multiAlarm())},
		{Name: "grant_test", Apps: caseApps(grantTest())},
		{Name: "allow_ro_test", Apps: caseApps(allowROTest())},
		{Name: "allow_rw_test", Apps: caseApps(allowRWTest())},
		{Name: "ipc_pair", Apps: caseApps(ipcRx(), ipcTx())},
		{Name: "exit_test", Apps: caseApps(exitTest())},
		{Name: "led_dance", Apps: caseApps(ledDance())},
		{Name: "yield_loop", Apps: caseApps(yieldLoop())},
	}
	return set.cases[:]
}

func blink() kernel.App {
	return stdApp("blink", func(a *armv7m.Assembler) {
		for i := 0; i < 3; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverLED, 0, uint32(i%2), 0)
			Puts(a, "toggle\r\n")
		}
		Exit(a, 0)
	})
}

func printfLong() kernel.App {
	// Write a long string into RAM byte by byte, allow it, print it.
	msg := "printf works with long strings too: 0123456789 abcdefghijklmnopqrstuvwxyz\r\n"
	return stdApp("printf_long", func(a *armv7m.Assembler) {
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
			Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1536})
		for i, ch := range []byte(msg) {
			a.Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: uint32(ch)}).
				Emit(armv7m.Strb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: uint32(i)})
		}
		a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverConsole}).
			Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
			Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: uint32(len(msg))}).
			Emit(armv7m.SVC{Imm: kernel.SVCAllowRO})
		Syscall(a, kernel.SVCCommand, kernel.DriverConsole, 1, uint32(len(msg)), 0)
		Exit(a, 0)
	})
}

func sensors() kernel.App {
	return stdApp("sensors", func(a *armv7m.Assembler) {
		Puts(a, "temp: ")
		Syscall(a, kernel.SVCCommand, kernel.DriverTemp, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		PutHex(a, armv7m.R4)
		Puts(a, "\r\n")
		Exit(a, 0)
	})
}

func temperature() kernel.App {
	return stdApp("temperature", func(a *armv7m.Assembler) {
		for i := 0; i < 3; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverTemp, 0, 0, 0)
			a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
			PutHex(a, armv7m.R4)
			Puts(a, "\r\n")
		}
		Exit(a, 0)
	})
}

func mallocTest01() kernel.App {
	return stdApp("malloc_test01", func(a *armv7m.Assembler) {
		// r4 = old break; sbrk(+256); write/readback at old break.
		Syscall(a, kernel.SVCMemop, kernel.MemopAppBreak, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		Syscall(a, kernel.SVCMemop, kernel.MemopSbrk, 256, 0, 0)
		a.Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 0xAB}).
			Emit(armv7m.Strb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0}).
			Emit(armv7m.Ldrb{Rt: armv7m.R6, Rn: armv7m.R4, Imm: 0}).
			Emit(armv7m.CmpImm{Rn: armv7m.R6, Imm: 0xAB})
		a.BTo(armv7m.NE, "fail")
		Puts(a, "malloc01 ok\r\n")
		Exit(a, 0)
		a.Label("fail")
		Puts(a, "malloc01 FAIL\r\n")
		Exit(a, 1)
	})
}

func mallocTest02() kernel.App {
	return stdApp("malloc_test02", func(a *armv7m.Assembler) {
		// Grow and shrink repeatedly; every grow must succeed.
		for i := 0; i < 4; i++ {
			Syscall(a, kernel.SVCMemop, kernel.MemopSbrk, 512, 0, 0)
			a.Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: kernel.RetInvalid})
			a.BTo(armv7m.EQ, "fail")
			Syscall(a, kernel.SVCMemop, kernel.MemopSbrk, uint32(0xFFFFFFFF-256+1), 0, 0) // -256
		}
		Puts(a, "malloc02 ok\r\n")
		Exit(a, 0)
		a.Label("fail")
		Puts(a, "malloc02 FAIL\r\n")
		Exit(a, 1)
	})
}

func stackGrowth() kernel.App {
	// Deliberately overruns the stack; the fault report prints the
	// (kernel-specific) layout, so outputs differ across kernels.
	app := stdApp("stack_growth", func(a *armv7m.Assembler) {
		Puts(a, "growing stack\r\n")
		a.Label("loop")
		a.Emit(armv7m.Push{Regs: []armv7m.GPR{armv7m.R0, armv7m.R1, armv7m.R2, armv7m.R3}})
		a.BTo(armv7m.AL, "loop")
	})
	app.MinRAM, app.Stack = 8192, 512
	return app
}

func mpuWalkRegion() kernel.App {
	return stdApp("mpu_walk_region", func(a *armv7m.Assembler) {
		// Walk from memory_start to app_break reading each 256 bytes,
		// print a dot per step, then read past the break and fault.
		Syscall(a, kernel.SVCMemop, kernel.MemopMemoryStart, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		Syscall(a, kernel.SVCMemop, kernel.MemopAppBreak, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R5, Rm: armv7m.R0})
		a.Label("walk")
		a.Emit(armv7m.CmpReg{Rn: armv7m.R4, Rm: armv7m.R5})
		a.BTo(armv7m.GE, "past")
		a.Emit(armv7m.Ldr{Rt: armv7m.R6, Rn: armv7m.R4, Imm: 0})
		Puts(a, ".")
		a.Emit(armv7m.MovImm{Rd: armv7m.R7, Imm: 256}).
			Emit(armv7m.Add{Rd: armv7m.R4, Rn: armv7m.R4, Rm: armv7m.R7})
		a.BTo(armv7m.AL, "walk")
		a.Label("past")
		Puts(a, "\r\noverrun:")
		// Read past the kernel break: guaranteed protected.
		Syscall(a, kernel.SVCMemop, kernel.MemopGrantFree, 0, 0, 0)
		a.Emit(armv7m.Add{Rd: armv7m.R5, Rn: armv7m.R5, Rm: armv7m.R0}).
			Emit(armv7m.Ldr{Rt: armv7m.R6, Rn: armv7m.R5, Imm: 64})
		Puts(a, "UNREACHABLE")
		Exit(a, 1)
	})
}

func memoryLayout() kernel.App {
	return stdApp("memory_layout", func(a *armv7m.Assembler) {
		Puts(a, "start=")
		Syscall(a, kernel.SVCMemop, kernel.MemopMemoryStart, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		PutHex(a, armv7m.R4)
		Puts(a, " break=")
		Syscall(a, kernel.SVCMemop, kernel.MemopAppBreak, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		PutHex(a, armv7m.R4)
		Puts(a, " free=")
		Syscall(a, kernel.SVCMemop, kernel.MemopGrantFree, 0, 0, 0)
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0})
		PutHex(a, armv7m.R4)
		Puts(a, "\r\n")
		Exit(a, 0)
	})
}

func whileone() kernel.App {
	return stdApp("whileone", func(a *armv7m.Assembler) {
		a.Label("loop")
		a.Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1})
		a.BTo(armv7m.AL, "loop")
	})
}

func timerTest() kernel.App {
	return stdApp("timer_test", func(a *armv7m.Assembler) {
		Syscall(a, kernel.SVCCommand, kernel.DriverAlarm, 1, 3000, 0)
		a.Emit(armv7m.SVC{Imm: kernel.SVCYield})
		Puts(a, "timer fired\r\n")
		Exit(a, 0)
	})
}

func multiAlarm() kernel.App {
	return stdApp("multi_alarm", func(a *armv7m.Assembler) {
		for i := 0; i < 3; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverAlarm, 1, uint32(1000+i*500), 0)
			a.Emit(armv7m.SVC{Imm: kernel.SVCYield})
			Puts(a, "alarm\r\n")
		}
		Exit(a, 0)
	})
}

func grantTest() kernel.App {
	return stdApp("grant_test", func(a *armv7m.Assembler) {
		for i := 0; i < 3; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverGrant, 0, 64, 0)
			a.Emit(armv7m.CmpImm{Rn: armv7m.R0, Imm: kernel.RetSuccess})
			a.BTo(armv7m.NE, "fail")
		}
		Puts(a, "grants ok\r\n")
		Exit(a, 0)
		a.Label("fail")
		Puts(a, "grants FAIL\r\n")
		Exit(a, 1)
	})
}

func allowROTest() kernel.App {
	return stdApp("allow_ro_test", func(a *armv7m.Assembler) {
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
			Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1600})
		for i, ch := range []byte("RO") {
			a.Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: uint32(ch)}).
				Emit(armv7m.Strb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: uint32(i)})
		}
		a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverConsole}).
			Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
			Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 2}).
			Emit(armv7m.SVC{Imm: kernel.SVCAllowRO})
		Syscall(a, kernel.SVCCommand, kernel.DriverConsole, 1, 2, 0)
		Puts(a, " ok\r\n")
		Exit(a, 0)
	})
}

func allowRWTest() kernel.App {
	return stdApp("allow_rw_test", func(a *armv7m.Assembler) {
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
			Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1600})
		a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverBufferFill}).
			Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
			Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 8}).
			Emit(armv7m.SVC{Imm: kernel.SVCAllowRW})
		Syscall(a, kernel.SVCCommand, kernel.DriverBufferFill, 0, '#', 0)
		// Verify the kernel filled the buffer, then print one byte.
		a.Emit(armv7m.Ldrb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 3}).
			Emit(armv7m.CmpImm{Rn: armv7m.R5, Imm: '#'})
		a.BTo(armv7m.NE, "fail")
		PutcharReg(a, armv7m.R5)
		Puts(a, " rw ok\r\n")
		Exit(a, 0)
		a.Label("fail")
		Puts(a, "rw FAIL\r\n")
		Exit(a, 1)
	})
}

func ipcRx() kernel.App {
	return stdApp("ipc_rx", func(a *armv7m.Assembler) {
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
			Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1600})
		a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverIPC}).
			Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
			Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 4}).
			Emit(armv7m.SVC{Imm: kernel.SVCAllowRW})
		Syscall(a, kernel.SVCCommand, kernel.DriverAlarm, 1, 80000, 0)
		a.Emit(armv7m.SVC{Imm: kernel.SVCYield})
		Puts(a, "rx: ")
		a.Emit(armv7m.Ldrb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
		PutcharReg(a, armv7m.R5)
		Puts(a, "\r\n")
		Exit(a, 0)
	})
}

func ipcTx() kernel.App {
	return stdApp("ipc_tx", func(a *armv7m.Assembler) {
		a.Emit(armv7m.MovReg{Rd: armv7m.R4, Rm: armv7m.R0}).
			Emit(armv7m.AddImm{Rd: armv7m.R4, Rn: armv7m.R4, Imm: 1600}).
			Emit(armv7m.MovImm{Rd: armv7m.R5, Imm: 'M'}).
			Emit(armv7m.Strb{Rt: armv7m.R5, Rn: armv7m.R4, Imm: 0})
		a.Emit(armv7m.MovImm{Rd: armv7m.R0, Imm: kernel.DriverIPC}).
			Emit(armv7m.MovReg{Rd: armv7m.R1, Rm: armv7m.R4}).
			Emit(armv7m.MovImm{Rd: armv7m.R2, Imm: 4}).
			Emit(armv7m.SVC{Imm: kernel.SVCAllowRO})
		Syscall(a, kernel.SVCCommand, kernel.DriverIPC, 0, 0, 0) // copy to proc 0
		Exit(a, 0)
	})
}

func exitTest() kernel.App {
	return stdApp("exit_test", func(a *armv7m.Assembler) {
		Puts(a, "exiting with code 7\r\n")
		Exit(a, 7)
	})
}

func ledDance() kernel.App {
	return stdApp("led_dance", func(a *armv7m.Assembler) {
		for i := 0; i < 4; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverLED, 1, uint32(i), 0)
		}
		for i := 0; i < 4; i++ {
			Syscall(a, kernel.SVCCommand, kernel.DriverLED, 2, uint32(3-i), 0)
		}
		Puts(a, "dance done\r\n")
		Exit(a, 0)
	})
}

func yieldLoop() kernel.App {
	return stdApp("yield_loop", func(a *armv7m.Assembler) {
		for i := 0; i < 5; i++ {
			a.Emit(armv7m.SVC{Imm: kernel.SVCYield})
		}
		Puts(a, "yields done\r\n")
		Exit(a, 0)
	})
}
