package kernel

import (
	"fmt"

	"ticktock/internal/cycles"
	"ticktock/internal/kcore"
	"ticktock/internal/mpu"
	"ticktock/internal/trace"
)

// Syscall classes (the SVC immediate): the shared ABI's, then the two
// only this port has.
const (
	SVCYield   = kcore.SVCYield
	SVCCommand = kcore.SVCCommand
	SVCAllowRW = kcore.SVCAllowRW
	SVCAllowRO = kcore.SVCAllowRO
	SVCMemop   = kcore.SVCMemop
	SVCExit    = kcore.SVCExit
	// SVCSubscribe registers an upcall: r0=driver, r1=callback address
	// (must be executable process flash), r2=userdata. A zero callback
	// unsubscribes.
	SVCSubscribe = 6
	// SVCUpcallDone is issued by the injected stub when a callback
	// returns; user code never calls it directly.
	SVCUpcallDone = 7
)

// Driver numbers: the shared ABI's, then the two only this port hosts.
const (
	DriverConsole    = kcore.DriverConsole
	DriverAlarm      = kcore.DriverAlarm
	DriverTemp       = kcore.DriverTemp
	DriverLED        = kcore.DriverLED
	DriverGrant      = kcore.DriverGrant
	DriverBufferFill = 5
	DriverIPC        = 6
)

// Syscall return codes.
const (
	RetSuccess = kcore.RetSuccess
	RetFail    = kcore.RetFail
	RetInvalid = kcore.RetInvalid
	RetNoMem   = kcore.RetNoMem
)

// Memop operations.
const (
	MemopBrk         = kcore.MemopBrk
	MemopSbrk        = kcore.MemopSbrk
	MemopMemoryStart = kcore.MemopMemoryStart
	MemopAppBreak    = kcore.MemopAppBreak
	MemopFlashStart  = kcore.MemopFlashStart
	MemopFlashSize   = kcore.MemopFlashSize
	MemopGrantFree   = kcore.MemopGrantFree
)

// syscallServiceCycles is the flavour-independent cost of servicing a
// syscall inside the kernel — argument unstacking, process-table lookup,
// capability checks and the return path. The paper's measurement hooks
// wrap whole kernel methods, so this constant is charged inside each
// instrumented window on both kernels alike.
const syscallServiceCycles = 100

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

// deliverUpcall pushes a synthetic exception frame for p's callback on
// driver below the yield-site frame, so the process resumes inside the
// callback with LR pointing at the injected return stub. It reports
// whether p subscribed to driver.
func (k *Kernel) deliverUpcall(p *Process, driver, a0, a1 uint32) (bool, error) {
	sub, ok := p.Upcalls[driver]
	if !ok {
		return false, nil
	}
	m := k.Board.Machine
	p.yieldPSP = p.PSP
	newPSP := (p.PSP - 32) &^ 7
	words := [8]uint32{a0, a1, 0, sub.Userdata, 0, p.upcallStub, sub.Fn, 0}
	for i, w := range words {
		if err := m.Mem.WriteWord(newPSP+uint32(4*i), w); err != nil {
			return true, fmt.Errorf("kernel: delivering upcall to %s: %w", p.Name, err)
		}
	}
	p.PSP = newPSP
	p.inUpcall = true
	p.State = StateReady
	k.Meter().Add(8 * cycles.Store)
	return true, nil
}

// finishUpcall handles the stub's SVC in a live upcall: pop the
// callback frame and resume at the yield site.
func (k *Kernel) finishUpcall(p *Process) error {
	p.inUpcall = false
	p.PSP = p.yieldPSP
	// The yield that triggered delivery completes with success.
	return k.Board.Machine.WriteFrameR0(p.PSP, RetSuccess)
}

// alarmCmd: cmd 1 arms a relative alarm so a following yield blocks
// until it fires (the core serves cmd 0, the tick read).
//
// The alarm capsule keeps its per-process state in the process's grant
// region, as Tock capsules do: the first alarm syscall allocates an
// 8-byte grant (through the instrumented allocate_grant path) and every
// armed deadline is written there. The grant lives above the kernel
// break, so the process can neither read nor forge its own wake time —
// the isolation property the kernel tests assert.
func (k *Kernel) alarmCmd(p *Process, cmd, delay uint32) uint32 {
	if cmd != 1 {
		return RetInvalid
	}
	if p.alarmGrant == 0 {
		var addr uint32
		var err error
		armPort{k}.Service("allocate_grant", func() {
			addr, err = p.MM.AllocateGrant(8)
			k.Emit(trace.KindGrantAlloc, p, 8, uint64(addr), "alarm")
		})
		if err != nil {
			return RetNoMem
		}
		p.Grants = append(p.Grants, addr)
		p.alarmGrant = addr
	}
	wake := k.Meter().Cycles() + uint64(delay)
	mem := k.Board.Machine.Mem
	if mem.WriteWord(p.alarmGrant, uint32(wake)) != nil ||
		mem.WriteWord(p.alarmGrant+4, uint32(wake>>32)) != nil {
		return RetFail
	}
	k.Meter().Add(2 * cycles.Store)
	p.WakeAt = wake
	return RetSuccess
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
