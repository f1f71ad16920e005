package kernel

import (
	"fmt"

	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/trace"
)

// Syscall classes (the SVC immediate), a compact version of the Tock 2.x
// ABI.
const (
	SVCYield   = 0
	SVCCommand = 1
	SVCAllowRW = 2
	SVCAllowRO = 3
	SVCMemop   = 4
	SVCExit    = 5
	// SVCSubscribe registers an upcall: r0=driver, r1=callback address
	// (must be executable process flash), r2=userdata. A zero callback
	// unsubscribes.
	SVCSubscribe = 6
	// SVCUpcallDone is issued by the injected stub when a callback
	// returns; user code never calls it directly.
	SVCUpcallDone = 7
)

// Driver numbers for the capsule-style drivers the kernel hosts.
const (
	DriverConsole    = 0
	DriverAlarm      = 1
	DriverTemp       = 2
	DriverLED        = 3
	DriverGrant      = 4
	DriverBufferFill = 5
	DriverIPC        = 6
)

// Syscall return codes (subset of Tock's).
const (
	RetSuccess = 0
	RetFail    = 0xFFFF_FFFF
	RetInvalid = 0xFFFF_FFFE
	RetNoMem   = 0xFFFF_FFFD
)

// syscallServiceCycles is the flavour-independent cost of servicing a
// syscall inside the kernel — argument unstacking, process-table lookup,
// capability checks and the return path. The paper's measurement hooks
// wrap whole kernel methods, so this constant is charged inside each
// instrumented window on both kernels alike.
const syscallServiceCycles = 100

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

// handleSyscall reads the stacked frame for arguments, dispatches, and
// writes the return value into the stacked r0 so the process sees it when
// it resumes.
func (k *Kernel) handleSyscall(p *Process, svcNum uint8) error {
	m := k.Board.Machine
	f, err := m.ReadFrame(p.PSP)
	if err != nil {
		return fmt.Errorf("kernel: reading syscall frame of %s: %w", p.Name, err)
	}
	if h := k.sup.Hooks.SyscallArgs; h != nil {
		a := h(p, svcNum, [4]uint32{f.R0, f.R1, f.R2, f.R3})
		f.R0, f.R1, f.R2, f.R3 = a[0], a[1], a[2], a[3]
	}
	var ret uint32 = RetSuccess
	if k.Tracer() != nil {
		k.Emit(trace.KindSyscallEnter, p, uint64(svcNum), uint64(f.R0), k.ClassName(svcNum))
		// The exit event pairs with the enter even on the early-return
		// paths (yield delivering an upcall, exit, upcall-done), so
		// Chrome B/E spans always close.
		defer func() { k.Emit(trace.KindSyscallExit, p, uint64(svcNum), uint64(ret), k.ClassName(svcNum)) }()
	}

	switch svcNum {
	case SVCYield:
		// Deliver a queued upcall if one is pending; otherwise park
		// until the wake (Tock's yield-wait) or fall through
		// (yield-no-wait).
		if len(p.pendingUpcalls) > 0 {
			return k.deliverUpcall(p)
		}
		if p.WakeAt != 0 && p.WakeAt > k.Meter().Cycles() {
			p.State = StateYielded
		}

	case SVCSubscribe:
		ret = k.subscribe(p, f.R0, f.R1, f.R2)

	case SVCUpcallDone:
		return k.finishUpcall(p)

	case SVCCommand:
		ret = k.command(p, f.R0, f.R1, f.R2, f.R3)

	case SVCAllowRW:
		ret = k.allow(p, f.R0, f.R1, f.R2, true)

	case SVCAllowRO:
		ret = k.allow(p, f.R0, f.R1, f.R2, false)

	case SVCMemop:
		ret = k.memop(p, f.R0, f.R1)

	case SVCExit:
		p.State = StateExited
		p.ExitCode = f.R0
		return nil

	default:
		ret = RetInvalid
	}

	switch ret {
	case RetFail, RetInvalid, RetNoMem:
		k.SyscallErrors++
	}
	if h := k.sup.Hooks.SyscallRet; h != nil {
		ret = h(p, svcNum, ret)
	}
	if err := m.WriteFrameR0(p.PSP, ret); err != nil {
		return fmt.Errorf("kernel: writing syscall return for %s: %w", p.Name, err)
	}
	return nil
}

// subscribe registers (or, with a zero callback, removes) a driver
// upcall. The callback pointer is validated to be executable process
// flash — a kernel tricked into jumping elsewhere on the process's behalf
// would be the classic confused-deputy break.
func (k *Kernel) subscribe(p *Process, driver, fn, userdata uint32) uint32 {
	if fn == 0 {
		delete(p.Upcalls, driver)
		return RetSuccess
	}
	if !p.MM.UserCanAccess(fn, 4, mpu.AccessExecute) {
		return RetInvalid
	}
	p.Upcalls[driver] = Upcall{Fn: fn, Userdata: userdata}
	return RetSuccess
}

// scheduleUpcall queues a callback delivery if the process subscribed.
// It reports whether an upcall was queued.
func (k *Kernel) scheduleUpcall(p *Process, driver, a0, a1 uint32) bool {
	if _, ok := p.Upcalls[driver]; !ok {
		return false
	}
	p.pendingUpcalls = append(p.pendingUpcalls, ScheduledUpcall{Driver: driver, A0: a0, A1: a1})
	return true
}

// deliverUpcall pushes a synthetic exception frame for the next queued
// callback below the yield-site frame, so the process resumes inside the
// callback with LR pointing at the injected return stub.
func (k *Kernel) deliverUpcall(p *Process) error {
	up := p.pendingUpcalls[0]
	p.pendingUpcalls = p.pendingUpcalls[1:]
	sub := p.Upcalls[up.Driver]

	m := k.Board.Machine
	p.yieldPSP = p.PSP
	newPSP := (p.PSP - 32) &^ 7
	words := [8]uint32{up.A0, up.A1, up.A2, sub.Userdata, 0, p.upcallStub, sub.Fn, 0}
	for i, w := range words {
		if err := m.Mem.WriteWord(newPSP+uint32(4*i), w); err != nil {
			return fmt.Errorf("kernel: delivering upcall to %s: %w", p.Name, err)
		}
	}
	p.PSP = newPSP
	p.inUpcall = true
	p.State = StateReady
	k.Meter().Add(8 * cycles.Store)
	return nil
}

// finishUpcall handles the stub's SVC: pop the callback frame and resume
// at the yield site.
func (k *Kernel) finishUpcall(p *Process) error {
	if !p.inUpcall {
		// A process invoking the stub directly is misbehaving; treat it
		// like an invalid syscall rather than corrupting the stack.
		return k.Board.Machine.WriteFrameR0(p.PSP, RetInvalid)
	}
	p.inUpcall = false
	p.PSP = p.yieldPSP
	// The yield that triggered delivery completes with success.
	return k.Board.Machine.WriteFrameR0(p.PSP, RetSuccess)
}

// allow registers a shared buffer after validating it against the process
// layout — the instrumented build_readonly_buffer / build_readwrite_buffer
// paths of Figure 11.
func (k *Kernel) allow(p *Process, driver, addr, length uint32, writable bool) uint32 {
	method := "build_readonly_buffer"
	kind := mpu.AccessRead
	if writable {
		method = "build_readwrite_buffer"
		kind = mpu.AccessWrite
	}
	var ret uint32
	_ = k.instrument(method, func() error {
		k.Meter().Add(syscallServiceCycles)
		if length == 0 {
			// A zero-length allow revokes the buffer.
			if writable {
				delete(p.AllowedRW, driver)
			} else {
				delete(p.AllowedRO, driver)
			}
			ret = RetSuccess
			return nil
		}
		if !p.MM.UserCanAccess(addr, length, kind) {
			ret = RetInvalid
			return nil
		}
		if writable {
			p.AllowedRW[driver] = Buffer{Addr: addr, Len: length}
		} else {
			p.AllowedRO[driver] = Buffer{Addr: addr, Len: length}
		}
		ret = RetSuccess
		return nil
	})
	return ret
}

// memop implements the memory-operations syscall.
func (k *Kernel) memop(p *Process, op, arg uint32) uint32 {
	layout := p.MM.Layout()
	switch op {
	case MemopBrk:
		var ret uint32 = RetSuccess
		_ = k.instrument("brk", func() error {
			k.Meter().Add(syscallServiceCycles)
			if err := p.MM.Brk(arg); err != nil {
				ret = RetInvalid
				k.Emit(trace.KindBrk, p, uint64(arg), 0, "brk")
				return nil
			}
			k.Emit(trace.KindBrk, p, uint64(arg), uint64(p.MM.Layout().AppBreak), "brk")
			return nil
		})
		return ret
	case MemopSbrk:
		var ret uint32
		_ = k.instrument("brk", func() error {
			k.Meter().Add(syscallServiceCycles)
			nb, err := p.MM.Sbrk(int32(arg))
			if err != nil {
				ret = RetInvalid
				k.Emit(trace.KindBrk, p, uint64(arg), 0, "sbrk")
				return nil
			}
			ret = nb
			k.Emit(trace.KindBrk, p, uint64(arg), uint64(nb), "sbrk")
			return nil
		})
		return ret
	case MemopMemoryStart:
		return layout.MemoryStart
	case MemopAppBreak:
		return layout.AppBreak
	case MemopFlashStart:
		return layout.FlashStart
	case MemopFlashSize:
		return layout.FlashSize
	case MemopGrantFree:
		return layout.UnusedSize()
	default:
		return RetInvalid
	}
}

// command dispatches to the capsule-style drivers.
func (k *Kernel) command(p *Process, driver, cmd, arg2, arg3 uint32) uint32 {
	switch driver {
	case DriverConsole:
		return k.consoleCmd(p, cmd, arg2)
	case DriverAlarm:
		return k.alarmCmd(p, cmd, arg2)
	case DriverTemp:
		if cmd == 0 {
			// Simulated on-die temperature in centi-degrees with
			// cycle-count jitter, as a real sensor read is timing
			// dependent: kernels with different code-path timing
			// report different readings (a §6.1 expected difference).
			return 2200 + uint32(k.Meter().Cycles()%997)
		}
		return RetInvalid
	case DriverLED:
		return k.ledCmd(p, cmd, arg2)
	case DriverGrant:
		return k.grantCmd(p, cmd, arg2)
	case DriverBufferFill:
		return k.bufferFillCmd(p, cmd, arg2)
	case DriverIPC:
		return k.ipcCmd(p, cmd, arg2)
	default:
		return RetInvalid
	}
}

// consoleCmd: cmd 0 writes one character (arg2); cmd 1 prints the
// process's allowed read-only console buffer (length arg2, clamped).
func (k *Kernel) consoleCmd(p *Process, cmd, arg2 uint32) uint32 {
	switch cmd {
	case 0:
		k.AppendOutput(p, string(rune(arg2&0x7F)))
		k.Meter().Add(cycles.MMIO)
		return RetSuccess
	case 1:
		buf, ok := p.AllowedRO[DriverConsole]
		if !ok {
			return RetInvalid
		}
		n := min(arg2, buf.Len)
		data, err := k.Board.ReadRAM(buf.Addr, n)
		if err != nil {
			return RetFail
		}
		k.Meter().Add(uint64(n) * cycles.Load)
		k.AppendOutput(p, string(data))
		return n
	default:
		return RetInvalid
	}
}

// alarmCmd: cmd 0 reads the current tick counter; cmd 1 arms a relative
// alarm so a following yield blocks until it fires.
//
// The alarm capsule keeps its per-process state in the process's grant
// region, as Tock capsules do: the first alarm syscall allocates an
// 8-byte grant (through the instrumented allocate_grant path) and every
// armed deadline is written there. The grant lives above the kernel
// break, so the process can neither read nor forge its own wake time —
// the isolation property the kernel tests assert.
func (k *Kernel) alarmCmd(p *Process, cmd, arg2 uint32) uint32 {
	switch cmd {
	case 0:
		return uint32(k.Meter().Cycles() >> 6)
	case 1:
		if p.alarmGrant == 0 {
			var addr uint32
			var err error
			_ = k.instrument("allocate_grant", func() error {
				k.Meter().Add(syscallServiceCycles)
				addr, err = p.MM.AllocateGrant(8)
				k.Emit(trace.KindGrantAlloc, p, 8, uint64(addr), "alarm")
				return nil
			})
			if err != nil {
				return RetNoMem
			}
			p.Grants = append(p.Grants, addr)
			p.alarmGrant = addr
		}
		wake := k.Meter().Cycles() + uint64(arg2)
		mem := k.Board.Machine.Mem
		if mem.WriteWord(p.alarmGrant, uint32(wake)) != nil ||
			mem.WriteWord(p.alarmGrant+4, uint32(wake>>32)) != nil {
			return RetFail
		}
		k.Meter().Add(2 * cycles.Store)
		p.WakeAt = wake
		return RetSuccess
	default:
		return RetInvalid
	}
}

// alarmGrantState reads the grant-backed deadline back out of process
// memory; exposed for tests asserting the grant is the source of truth.
func (k *Kernel) alarmGrantState(p *Process) (uint64, bool) {
	if p.alarmGrant == 0 {
		return 0, false
	}
	lo, err1 := k.Board.Machine.Mem.ReadWord(p.alarmGrant)
	hi, err2 := k.Board.Machine.Mem.ReadWord(p.alarmGrant + 4)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return uint64(hi)<<32 | uint64(lo), true
}

// ledCmd: cmd 0 toggles, 1 turns on, 2 turns off LED arg2.
func (k *Kernel) ledCmd(p *Process, cmd, arg2 uint32) uint32 {
	if int(arg2) >= len(k.LEDs) {
		return RetInvalid
	}
	switch cmd {
	case 0:
		k.LEDs[arg2] = !k.LEDs[arg2]
	case 1:
		k.LEDs[arg2] = true
	case 2:
		k.LEDs[arg2] = false
	default:
		return RetInvalid
	}
	k.Meter().Add(cycles.MMIO)
	return RetSuccess
}

// grantCmd: cmd 0 allocates a grant of arg2 bytes on behalf of a capsule —
// the instrumented allocate_grant path of Figure 11.
func (k *Kernel) grantCmd(p *Process, cmd, arg2 uint32) uint32 {
	if cmd != 0 {
		return RetInvalid
	}
	var ret uint32
	_ = k.instrument("allocate_grant", func() error {
		k.Meter().Add(syscallServiceCycles)
		addr, err := p.MM.AllocateGrant(arg2)
		if err != nil {
			ret = RetNoMem
			k.Emit(trace.KindGrantAlloc, p, uint64(arg2), 0, "grant")
			return nil
		}
		p.Grants = append(p.Grants, addr)
		ret = RetSuccess
		k.Emit(trace.KindGrantAlloc, p, uint64(arg2), uint64(addr), "grant")
		return nil
	})
	return ret
}

// bufferFillCmd: cmd 0 fills the process's allowed read-write buffer with
// the byte in arg2 — a capsule writing into user memory through a checked
// buffer.
func (k *Kernel) bufferFillCmd(p *Process, cmd, arg2 uint32) uint32 {
	if cmd != 0 {
		return RetInvalid
	}
	buf, ok := p.AllowedRW[DriverBufferFill]
	if !ok {
		return RetInvalid
	}
	b := make([]byte, buf.Len)
	for i := range b {
		b[i] = byte(arg2)
	}
	if err := k.Board.Machine.Mem.WriteBytes(buf.Addr, b); err != nil {
		return RetFail
	}
	k.Meter().Add(uint64(buf.Len) * cycles.Store)
	return buf.Len
}

// ipcCmd implements the IPC driver:
//
//	cmd 0: copy this process's read-only IPC buffer into process arg2's
//	       read-write IPC buffer (kernel-mediated copy);
//	cmd 1: share this process's accessible RAM with process arg2 by
//	       mapping an extra MPU region into arg2's configuration —
//	       Tock's hardware-mediated IPC. The client then reads/writes
//	       the service's memory directly, no kernel copies.
//	cmd 2: revoke a mapping previously granted to process arg2.
func (k *Kernel) ipcCmd(p *Process, cmd, arg2 uint32) uint32 {
	switch cmd {
	case 1, 2:
		if int(arg2) >= len(k.Procs) || int(arg2) == p.ID {
			return RetInvalid
		}
		target := k.Procs[arg2]
		if cmd == 2 {
			if err := target.MM.UnshareRegion(); err != nil {
				return RetFail
			}
			return RetSuccess
		}
		layout := p.MM.Layout()
		if err := target.MM.ShareRegion(layout.MemoryStart, layout.AppBreak-layout.MemoryStart, true); err != nil {
			return RetNoMem
		}
		return RetSuccess
	}
	if cmd != 0 {
		return RetInvalid
	}
	src, ok := p.AllowedRO[DriverIPC]
	if !ok {
		return RetInvalid
	}
	if int(arg2) >= len(k.Procs) {
		return RetInvalid
	}
	target := k.Procs[int(arg2)]
	dst, ok := target.AllowedRW[DriverIPC]
	if !ok {
		return RetInvalid
	}
	n := min(src.Len, dst.Len)
	data, err := k.Board.ReadRAM(src.Addr, n)
	if err != nil {
		return RetFail
	}
	if err := k.Board.Machine.Mem.WriteBytes(dst.Addr, data); err != nil {
		return RetFail
	}
	k.Meter().Add(uint64(n) * (cycles.Load + cycles.Store))
	return n
}
