package kcore

import (
	"fmt"

	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/trace"
)

// Syscall classes both ports number alike, a compact version of the Tock
// 2.x ABI: the class is the SVC immediate on ARM and a7 on RISC-V, the
// arguments arrive in r0..r3 (a0..a3) and the return value leaves in r0
// (a0). A port serves any class above SVCExit itself (Port.Syscall).
const (
	SVCYield   = 0
	SVCCommand = 1
	SVCAllowRW = 2
	SVCAllowRO = 3
	SVCMemop   = 4
	SVCExit    = 5
)

// Driver numbers of the capsule-style drivers the core hosts.
const (
	DriverConsole = 0
	DriverAlarm   = 1
	DriverTemp    = 2
	DriverLED     = 3
	DriverGrant   = 4
)

// Memop operations.
const (
	MemopBrk         = 0
	MemopSbrk        = 1
	MemopMemoryStart = 2
	MemopAppBreak    = 3
	MemopFlashStart  = 4
	MemopFlashSize   = 5
	MemopGrantFree   = 6
)

// Syscall return codes (subset of Tock's).
const (
	RetSuccess = 0
	RetFail    = 0xFFFF_FFFF
	RetInvalid = 0xFFFF_FFFE
	RetNoMem   = 0xFFFF_FFFD
)

// Buffer is a user-shared buffer registered via an allow syscall.
type Buffer struct {
	Addr uint32
	Len  uint32
}

// Layout is a read-only snapshot of a process's memory layout, used for
// memops, fault reports and the memory microbenchmark.
type Layout struct {
	MemoryStart uint32
	MemorySize  uint32
	AppBreak    uint32
	KernelBreak uint32
	FlashStart  uint32
	FlashSize   uint32
}

// MemoryEnd returns the first address past the block.
func (l Layout) MemoryEnd() uint32 { return l.MemoryStart + l.MemorySize }

// GrantSize returns the kernel-owned grant region size.
func (l Layout) GrantSize() uint32 { return l.MemoryEnd() - l.KernelBreak }

// UnusedSize returns the gap between the app break and the kernel break —
// the "unused memory" the §6.2 microbenchmark reports.
func (l Layout) UnusedSize() uint32 { return l.KernelBreak - l.AppBreak }

// String formats the layout the way the kernel's fault report prints it.
func (l Layout) String() string {
	return fmt.Sprintf("mem=[0x%08x,0x%08x) app_break=0x%08x kernel_break=0x%08x flash=[0x%08x,0x%08x)",
		l.MemoryStart, l.MemoryEnd(), l.AppBreak, l.KernelBreak, l.FlashStart, l.FlashStart+l.FlashSize)
}

// Memory is the part of a process's memory manager the syscall ABI
// drives.
type Memory interface {
	// Brk moves the end of process-accessible memory.
	Brk(newBreak uint32) error
	// Sbrk adjusts the break by a signed delta, returning the new break.
	Sbrk(delta int32) (uint32, error)
	// AllocateGrant carves an aligned grant allocation out of the
	// kernel-owned region, returning its base address.
	AllocateGrant(size uint32) (uint32, error)
	// UserCanAccess validates a user-supplied buffer span (the
	// build_readonly_buffer / build_readwrite_buffer paths).
	UserCanAccess(start, size uint32, kind mpu.AccessKind) bool
	// Layout returns the kernel's current view of the process layout.
	Layout() Layout
}

// syscall serves the syscall that stopped p: it reads the arguments,
// dispatches on the class, counts an error return and runs the
// SyscallRet hook, then delivers the return value.
func (k *Kernel[P, C]) syscall(p P, class C) error {
	port := k.c.Port
	args, err := port.Args(p, class)
	if err != nil {
		return err
	}
	var ret uint32 = RetSuccess
	if k.tracer != nil {
		k.Emit(trace.KindSyscallEnter, p, uint64(class), uint64(args[0]), k.ClassName(class))
		// The exit event pairs with the enter even on the paths that
		// deliver no return value (exit, a port resuming p itself), so
		// Chrome B/E spans always close.
		defer func() { k.Emit(trace.KindSyscallExit, p, uint64(class), uint64(ret), k.ClassName(class)) }()
	}

	r := p.record()
	switch class {
	case SVCYield:
		// Park until the wake (Tock's yield-wait) or fall through
		// (yield-no-wait).
		if r.WakeAt != 0 && r.WakeAt > k.c.Meter.Cycles() {
			r.State = StateYielded
		}
	case SVCAllowRW, SVCAllowRO:
		ret = k.allow(p, class == SVCAllowRW, args[0], args[1], args[2])
	case SVCMemop:
		ret = k.memop(p, args[0], args[1])
	case SVCExit:
		r.State = StateExited
		r.ExitCode = args[0]
		return nil
	case SVCCommand:
		var served bool
		if ret, served = k.command(p, args[0], args[1], args[2]); served {
			break
		}
		fallthrough
	default:
		var deliver bool
		ret, deliver, err = port.Syscall(p, class, args)
		if err != nil || !deliver {
			return err
		}
	}

	switch ret {
	case RetFail, RetInvalid, RetNoMem:
		k.SyscallErrors++
	}
	if h := k.c.Supervision.Hooks.SyscallRet; h != nil {
		ret = h(p, class, ret)
	}
	return port.SetReturn(p, ret)
}

// allow registers a shared buffer after validating it against the
// process layout, or revokes it when length is zero — the
// build_readonly_buffer / build_readwrite_buffer paths of Figure 11.
func (k *Kernel[P, C]) allow(p P, writable bool, driver, addr, length uint32) uint32 {
	method, kind, table := "build_readonly_buffer", mpu.AccessRead, p.record().AllowedRO
	if writable {
		method, kind, table = "build_readwrite_buffer", mpu.AccessWrite, p.record().AllowedRW
	}
	var ret uint32 = RetSuccess
	k.c.Port.Service(method, func() {
		switch {
		case length == 0:
			delete(table, driver)
		case !k.c.Port.Memory(p).UserCanAccess(addr, length, kind):
			ret = RetInvalid
		default:
			table[driver] = Buffer{Addr: addr, Len: length}
		}
	})
	return ret
}

// memop implements the memory-operations syscall. Moving the break is
// a service; the other operations read the layout.
func (k *Kernel[P, C]) memop(p P, op, arg uint32) uint32 {
	mem := k.c.Port.Memory(p)
	var ret uint32 = RetSuccess
	switch op {
	case MemopBrk:
		k.c.Port.Service("brk", func() {
			var nb uint32
			if err := mem.Brk(arg); err != nil {
				ret = RetInvalid
			} else {
				nb = mem.Layout().AppBreak
			}
			k.Emit(trace.KindBrk, p, uint64(arg), uint64(nb), "brk")
		})
		return ret
	case MemopSbrk:
		k.c.Port.Service("brk", func() {
			nb, err := mem.Sbrk(int32(arg))
			if err != nil {
				ret, nb = RetInvalid, 0
			} else {
				ret = nb
			}
			k.Emit(trace.KindBrk, p, uint64(arg), uint64(nb), "sbrk")
		})
		return ret
	}
	l := mem.Layout()
	switch op {
	case MemopMemoryStart:
		return l.MemoryStart
	case MemopAppBreak:
		return l.AppBreak
	case MemopFlashStart:
		return l.FlashStart
	case MemopFlashSize:
		return l.FlashSize
	case MemopGrantFree:
		return l.UnusedSize()
	}
	return RetInvalid
}

// command serves the drivers the core hosts: the console, the alarm's
// tick read, the temperature sensor, the LEDs and grant allocation.
// served is false for a driver or command only the port has.
func (k *Kernel[P, C]) command(p P, driver, cmd, arg uint32) (ret uint32, served bool) {
	switch driver {
	case DriverConsole:
		return k.console(p, cmd, arg), true
	case DriverAlarm:
		if cmd == 0 {
			return uint32(k.c.Meter.Cycles() >> 6), true
		}
	case DriverTemp:
		if cmd != 0 {
			return RetInvalid, true
		}
		// Simulated on-die temperature in centi-degrees with cycle-count
		// jitter, as a real sensor read is timing dependent: kernels with
		// different code-path timing report different readings (a §6.1
		// expected difference).
		return 2200 + uint32(k.c.Meter.Cycles()%997), true
	case DriverLED:
		return k.led(cmd, arg), true
	case DriverGrant:
		return k.grant(p, cmd, arg), true
	}
	return 0, false
}

// console: cmd 0 writes one character (arg); cmd 1 prints the process's
// allowed read-only console buffer, clamped to arg bytes.
func (k *Kernel[P, C]) console(p P, cmd, arg uint32) uint32 {
	switch cmd {
	case 0:
		k.AppendOutput(p, string(rune(arg&0x7F)))
		k.c.Meter.Add(cycles.MMIO)
		return RetSuccess
	case 1:
		buf, ok := p.record().AllowedRO[DriverConsole]
		if !ok {
			return RetInvalid
		}
		n := min(arg, buf.Len)
		data, err := k.c.Memory.ReadBytes(buf.Addr, n)
		if err != nil {
			return RetFail
		}
		k.c.Meter.Add(uint64(n) * cycles.Load)
		k.AppendOutput(p, string(data))
		return n
	}
	return RetInvalid
}

// led: cmd 0 toggles, 1 turns on, 2 turns off LED arg.
func (k *Kernel[P, C]) led(cmd, arg uint32) uint32 {
	if int(arg) >= len(k.LEDs) {
		return RetInvalid
	}
	switch cmd {
	case 0:
		k.LEDs[arg] = !k.LEDs[arg]
	case 1:
		k.LEDs[arg] = true
	case 2:
		k.LEDs[arg] = false
	default:
		return RetInvalid
	}
	k.c.Meter.Add(k.c.LEDCycles)
	return RetSuccess
}

// grant: cmd 0 allocates a grant of size bytes on behalf of a capsule —
// the allocate_grant path of Figure 11.
func (k *Kernel[P, C]) grant(p P, cmd, size uint32) uint32 {
	if cmd != 0 {
		return RetInvalid
	}
	var ret uint32 = RetNoMem
	k.c.Port.Service("allocate_grant", func() {
		addr, err := k.c.Port.Memory(p).AllocateGrant(size)
		if err != nil {
			k.Emit(trace.KindGrantAlloc, p, uint64(size), 0, "grant")
			return
		}
		r := p.record()
		r.Grants = append(r.Grants, addr)
		ret = RetSuccess
		k.Emit(trace.KindGrantAlloc, p, uint64(size), uint64(addr), "grant")
	})
	return ret
}
