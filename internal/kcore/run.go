package kcore

import (
	"fmt"

	"ticktock/internal/trace"
)

// schedule returns the next runnable process — round-robin from the
// switch cursor, or from the top under SchedPriority — waking it if it
// slept. A process whose wake fails is faulted and skipped.
func (k *Kernel[P, C]) schedule() (P, bool) {
	var none P
	n := len(k.Procs)
	if n == 0 {
		return none, false
	}
	now := k.c.Meter.Cycles()
	start := int(k.Switches) % n
	if k.c.Scheduler == SchedPriority {
		start = 0
	}
	for i := 0; i < n; i++ {
		p := k.Procs[(start+i)%n]
		r := p.record()
		if !r.Runnable(now) {
			continue
		}
		if r.State == StateYielded {
			r.State = StateReady
			r.WakeAt = 0
			if err := k.c.Port.Wake(p, now); err != nil {
				k.fault(p, err)
				continue
			}
		}
		return p, true
	}
	return none, false
}

// idle advances time to the earliest wake when every live process is
// sleeping on an alarm — the WFI idle loop burning cycles. It reports
// whether anyone will ever wake.
func (k *Kernel[P, C]) idle() bool {
	var earliest uint64
	for _, p := range k.Procs {
		r := p.record()
		if r.State == StateYielded && r.WakeAt != 0 && (earliest == 0 || r.WakeAt < earliest) {
			earliest = r.WakeAt
		}
	}
	if earliest == 0 {
		return false
	}
	if now := k.c.Meter.Cycles(); earliest > now {
		k.c.Meter.Add(earliest - now)
		var kernel P
		k.Attr(now, kernel, "idle")
	}
	k.checkpoint("idle")
	return true
}

// switchIn programs p's protection and enters it in user mode.
func (k *Kernel[P, C]) switchIn(p P) error {
	t0 := k.c.Meter.Cycles()
	if err := k.c.Port.Protect(p); err != nil {
		return err
	}
	k.mMPU.Observe(k.c.Meter.Cycles() - t0)
	k.Emit(trace.KindMPUConfig, p, 0, 0, k.c.MPULabel)
	return k.c.Port.Restore(p)
}

// RunOnce schedules and runs a single process quantum, handling whatever
// stopped it. It reports whether any process ran.
func (k *Kernel[P, C]) RunOnce() (bool, error) {
	var kernel P
	t0 := k.c.Meter.Cycles()
	p, ok := k.schedule()
	k.Attr(t0, kernel, "schedule")
	if !ok {
		return k.idle(), nil
	}

	t0 = k.c.Meter.Cycles()
	if err := k.switchIn(p); err != nil {
		// A context switch that cannot complete — e.g. protection
		// hardware wedged by an upset — faults the process rather than
		// the board: fail closed per process, keep scheduling the rest.
		k.fault(p, fmt.Errorf("switching in: %v", err))
		k.Attr(t0, p, "fault")
		k.checkpoint("switch-fault")
		return true, nil
	}
	if h := k.c.Supervision.Hooks.QuantumStart; h != nil {
		h(p)
	}
	k.Attr(t0, p, "switch")
	t0 = k.c.Meter.Cycles()
	trap, err := k.c.Port.RunUser(p)
	if err != nil {
		return false, err
	}
	k.Attr(t0, p, "user")
	k.Switches++
	k.mSwitches.Inc()
	k.Emit(trace.KindContextSwitch, p, k.Switches, 0, trap.Reason)

	r := p.record()
	t0 = k.c.Meter.Cycles()
	switch trap.Kind {
	case TrapPreempt:
		k.Emit(trace.KindSysTick, p, 0, 0, k.c.TickLabel)
		k.c.Port.Save(p, trap.Kind)
		r.consecPreempts++
		if w := k.c.Supervision.Watchdog; w > 0 && r.consecPreempts >= w {
			k.WatchdogFires++
			k.mWatchdog.Inc()
			k.Emit(trace.KindWatchdog, p, uint64(r.consecPreempts), 0, "")
			k.fault(p, fmt.Errorf("watchdog: %d consecutive timeslices without a syscall", r.consecPreempts))
		}
		k.Attr(t0, p, "preempt")
	case TrapSyscall:
		k.c.Port.Save(p, trap.Kind)
		r.consecPreempts = 0
		err := k.syscall(p, trap.Class)
		if n := uint64(trap.Class); n < uint64(len(k.mSyscalls)) {
			k.mSyscalls[n].Inc()
			k.mSyscallCyc[n].Observe(k.c.Meter.Cycles() - t0)
		}
		k.Attr(t0, p, k.window(trap.Class))
		if err != nil {
			return false, err
		}
	case TrapFault:
		k.c.Port.Save(p, trap.Kind)
		k.fault(p, trap.Fault)
		k.Attr(t0, p, "fault")
	case TrapExit:
		k.c.Port.Save(p, trap.Kind)
		r.State = StateExited
		k.Attr(t0, p, "exit")
	}
	k.checkpoint(trap.Reason)
	return true, nil
}

// Run drives the scheduler until every process is dead or maxQuanta
// quanta have elapsed. It returns the number of quanta used.
func (k *Kernel[P, C]) Run(maxQuanta int) (int, error) {
	for q := 0; q < maxQuanta; q++ {
		if !k.Alive() {
			return q, nil
		}
		ran, err := k.RunOnce()
		if err != nil {
			return q, err
		}
		if !ran {
			return q, nil
		}
	}
	return maxQuanta, nil
}

// fault implements the fault policy: print a Tock-style fault report
// (the panic line, then the port's lines, which carry the memory layout
// §6.1's Stack Growth test deliberately diffs), then either terminate,
// restart — after an exponential backoff, if configured — or, once the
// restart budget is exhausted, leave the process faulted or quarantined.
func (k *Kernel[P, C]) fault(p P, cause error) {
	r := p.record()
	r.State = StateFaulted
	r.FaultReason = fmt.Sprint(cause)
	k.Faults++
	k.mFaults.Inc()
	k.Emit(trace.KindFault, p, 0, 0, r.FaultReason)
	k.AppendOutput(p, fmt.Sprintf("panic: process %s faulted: %v\n", r.Name, cause))
	k.AppendOutput(p, k.c.Port.FaultReport(p))

	sup := k.c.Supervision
	if sup.FaultPolicy != PolicyRestart && sup.FaultPolicy != PolicyQuarantine {
		return
	}
	maxR := sup.MaxRestarts
	if maxR == 0 {
		maxR = 3
	}
	if r.Restarts < maxR {
		if err := k.restart(p); err != nil {
			k.AppendOutput(p, fmt.Sprintf("restart failed: %v\n", err))
			return
		}
		r.Restarts++
		k.mRestarts.Inc()
		k.Emit(trace.KindRestart, p, uint64(r.Restarts), 0, "")
		k.AppendOutput(p, fmt.Sprintf("restarting %s (attempt %d/%d)\n", r.Name, r.Restarts, maxR))
		if base := sup.BackoffBase; base != 0 {
			// Park the freshly-reset process until base << (attempt-1)
			// cycles from now. StateYielded with a WakeAt is exactly a
			// timed sleep the scheduler knows how to resume.
			delay := base << uint(r.Restarts-1)
			r.State = StateYielded
			r.WakeAt = k.c.Meter.Cycles() + delay
			k.Emit(trace.KindBackoff, p, uint64(r.Restarts), delay, "")
		}
		return
	}
	if sup.FaultPolicy == PolicyQuarantine {
		r.State = StateQuarantined
		r.FaultReason = fmt.Sprintf("%v (quarantined after %d restarts)", cause, r.Restarts)
		k.Quarantines++
		k.mQuarantine.Inc()
		k.Emit(trace.KindQuarantine, p, uint64(r.Restarts), 0, r.FaultReason)
		k.AppendOutput(p, fmt.Sprintf("quarantining %s after %d restarts\n", r.Name, r.Restarts))
		return
	}
	// Restart budget exhausted: the process stays faulted, and the
	// reason records how many times the kernel tried.
	r.FaultReason = fmt.Sprintf("%v (gave up after %d restarts)", cause, r.Restarts)
}

// restart resets a faulted process for another run from its entry
// point and drops its shared buffers. Grant allocations persist, as they
// hold kernel state that outlives the process instance.
func (k *Kernel[P, C]) restart(p P) error {
	if err := k.c.Port.Reset(p); err != nil {
		return err
	}
	r := p.record()
	clear(r.AllowedRO)
	clear(r.AllowedRW)
	r.WakeAt = 0
	r.consecPreempts = 0
	r.State = StateReady
	r.FaultReason = ""
	return nil
}
