package kernel

import (
	"encoding/binary"
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

// armPort is the ARMv7-M glue the port-neutral core drives: the MPU
// behind the flavour's MemoryManager, SysTick, hardware exception
// frames, Figure 11's instrumented service windows, and the syscalls
// only this port has (subscribe and upcalls, the grant-backed alarm,
// buffer fill and IPC).
type armPort struct{ k *Kernel }

// Protect programs the MPU through the instrumented setup_mpu path.
func (g armPort) Protect(p *Process) error {
	return g.k.instrument("setup_mpu", p.MM.ConfigureMPU)
}

// Restore is the rest of the kernel→process context switch: SysTick
// arming, register restore, privilege drop and exception return. The
// MissedModeSwitch bug omits the privilege drop, faithfully reproducing
// tock#4246.
func (g armPort) Restore(p *Process) error {
	m := g.k.Board.Machine
	if g.k.Opts.Scheduler == SchedCooperative {
		m.Tick.Disarm()
	} else {
		m.Tick.Arm(g.k.Opts.Timeslice)
	}
	copy(m.CPU.R[4:12], p.SavedRegs[:])
	m.CPU.PSP = p.PSP
	if g.k.Opts.Bugs.MissedModeSwitch {
		// BUG (tock#4246): CONTROL.nPRIV is left clear — the process
		// will run with privileged access rights and bypass the MPU.
		m.CPU.Control &^= armv7m.ControlNPriv
	} else {
		m.CPU.Control |= armv7m.ControlNPriv
	}
	g.k.Meter().Add(cycles.MSR + cycles.Barrier + 8*cycles.Load)
	return m.SwitchToUser()
}

// RunUser runs the process until an exception stops it.
func (g armPort) RunUser(p *Process) (kcore.Trap[uint8], error) {
	stop, err := g.k.Board.Machine.Run(0)
	if err != nil {
		return kcore.Trap[uint8]{}, fmt.Errorf("kernel: running %s: %w", p.Name, err)
	}
	t := kcore.Trap[uint8]{Class: stop.SVCNum, Fault: stop.Fault, Reason: stop.Reason.String()}
	switch stop.Reason {
	case armv7m.StopPreempted:
		t.Kind = kcore.TrapPreempt
	case armv7m.StopSyscall:
		t.Kind = kcore.TrapSyscall
	case armv7m.StopFault:
		t.Kind = kcore.TrapFault
	case armv7m.StopIdle:
		t.Kind = kcore.TrapExit
	default:
		return t, fmt.Errorf("kernel: unexpected stop %v", stop.Reason)
	}
	return t, nil
}

// Save is the process→kernel half of the context switch: capture the
// callee-saved registers and the process stack pointer (which now points
// at the hardware-stacked frame), then disable the MPU for kernel
// execution.
func (g armPort) Save(p *Process, kind kcore.TrapKind) {
	m := g.k.Board.Machine
	if kind == kcore.TrapExit {
		// WFI outside an exception: there is no stacked frame to
		// resume from.
		m.Tick.Disarm()
		p.MM.DisableMPU()
		return
	}
	copy(p.SavedRegs[:], m.CPU.R[4:12])
	p.PSP = m.CPU.PSP
	m.Tick.Disarm()
	p.MM.DisableMPU()
	g.k.Meter().Add(8 * cycles.Store)
}

// Args reads the syscall arguments from the stacked exception frame.
// A rewritten argument reaches the dispatcher only: the frame keeps what
// the process stacked.
func (g armPort) Args(p *Process, svcNum uint8) ([4]uint32, error) {
	f, err := g.k.Board.Machine.ReadFrame(p.PSP)
	if err != nil {
		return [4]uint32{}, fmt.Errorf("kernel: reading syscall frame of %s: %w", p.Name, err)
	}
	args := [4]uint32{f.R0, f.R1, f.R2, f.R3}
	if h := g.k.sup.Hooks.SyscallArgs; h != nil {
		args = h(p, svcNum, args)
	}
	return args, nil
}

// SetReturn writes the return value into the stacked r0, so the process
// sees it when it resumes.
func (g armPort) SetReturn(p *Process, ret uint32) error {
	if err := g.k.Board.Machine.WriteFrameR0(p.PSP, ret); err != nil {
		return fmt.Errorf("kernel: writing syscall return for %s: %w", p.Name, err)
	}
	return nil
}

// Memory returns the flavour's memory manager.
func (g armPort) Memory(p *Process) kcore.Memory { return p.MM }

// Service runs f inside method's Figure 11 instrument window and charges
// syscallServiceCycles there.
func (g armPort) Service(method string, f func()) {
	_ = g.k.instrument(method, func() error {
		g.k.Meter().Add(syscallServiceCycles)
		f()
		return nil
	})
}

// Syscall serves subscribe, upcall-done, the grant-backed alarm set,
// buffer fill and IPC.
func (g armPort) Syscall(p *Process, svcNum uint8, a [4]uint32) (uint32, bool, error) {
	k := g.k
	switch svcNum {
	case SVCSubscribe:
		return k.subscribe(p, a[0], a[1], a[2]), true, nil
	case SVCUpcallDone:
		if !p.inUpcall {
			// A process invoking the stub directly is misbehaving;
			// treat it like any invalid syscall rather than
			// corrupting the stack.
			return RetInvalid, true, nil
		}
		// finishUpcall writes r0 itself, so the upcall's return is
		// neither counted nor seen by the SyscallRet hook; the trace
		// reports it as 0.
		return RetSuccess, false, k.finishUpcall(p)
	case SVCCommand:
		switch a[0] {
		case DriverAlarm:
			return k.alarmCmd(p, a[1], a[2]), true, nil
		case DriverBufferFill:
			return k.bufferFillCmd(p, a[1], a[2]), true, nil
		case DriverIPC:
			return k.ipcCmd(p, a[1], a[2]), true, nil
		}
	}
	return RetInvalid, true, nil
}

// Wake delivers an expiring alarm's upcall, if the process subscribed,
// before it resumes from its yield.
func (g armPort) Wake(p *Process, now uint64) error {
	_, err := g.k.deliverUpcall(p, DriverAlarm, uint32(now>>6), 0)
	return err
}

// Reset zeroes the process's accessible RAM, resets the break to the
// initial value, drops its upcalls, and rebuilds the initial stack
// frame.
func (g armPort) Reset(p *Process) error {
	layout := p.MM.Layout()
	if p.initialBreak != 0 && p.initialBreak != layout.AppBreak {
		if err := p.MM.Brk(p.initialBreak); err != nil {
			return err
		}
		layout = p.MM.Layout()
	}
	if _, err := kcore.ZeroWords(g.k.Board.Machine.Mem, layout.MemoryStart, layout.AppBreak); err != nil {
		return err
	}
	clear(p.Upcalls)
	p.inUpcall = false
	return p.buildInitialFrame(g.k.Board.Machine)
}

// FaultReport prints the latched MMFAR, if any, and the memory layout.
func (g armPort) FaultReport(p *Process) string {
	var s string
	if f := g.k.Board.Machine.Fault; f.Valid {
		s = fmt.Sprintf("mmfar: 0x%08x daccviol=%v iaccviol=%v\n", f.MMFAR, f.DACCVIOL, f.IACCVIOL)
		g.k.Board.Machine.Fault = armv7m.FaultStatus{}
	}
	return s + fmt.Sprintf("layout: %s\n", p.MM.Layout())
}

// Context reports the saved stack pointer and callee-saved registers.
func (g armPort) Context(p *Process) (string, uint64, uint64) {
	var regs [8 * 4]byte
	for i, r := range p.SavedRegs {
		binary.LittleEndian.PutUint32(regs[i*4:], r)
	}
	return "psp", uint64(p.PSP), flightrec.DigestBytes(regs[:])
}

// Flavour labels metrics with the memory-manager flavour.
func (g armPort) Flavour() string { return g.k.Opts.Flavour.String() }

// Observe attaches the machine-level instruments: instruction and
// exception counters, and exception entry/return trace events.
func (g armPort) Observe(o kcore.Observe) {
	m := g.k.Board.Machine
	if o.Metrics != nil {
		g.k.methodHist = make(map[string]*metrics.Histogram)
		m.AttachMetrics(o.Metrics, metrics.L("flavour", g.k.FlavourName()))
	}
	if tr := o.Trace; tr != nil {
		m.OnException = func(excNum uint32, entry bool) {
			kind := trace.KindExceptionEntry
			if !entry {
				kind = trace.KindExceptionReturn
			}
			tr.Emit(trace.Event{
				Cycle: m.Meter.Cycles(),
				Kind:  kind,
				Proc:  trace.KernelProc,
				A:     uint64(excNum),
			})
		}
	}
}
