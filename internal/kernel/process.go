package kernel

import (
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/kcore"
)

// State is a process lifecycle state.
type State = kcore.State

// Process states.
const (
	StateReady       = kcore.StateReady
	StateYielded     = kcore.StateYielded
	StateExited      = kcore.StateExited
	StateFaulted     = kcore.StateFaulted
	StateQuarantined = kcore.StateQuarantined
)

// Buffer is a user-shared buffer registered via an allow syscall.
type Buffer = kcore.Buffer

// Process is the kernel's per-process record: the port-neutral record
// (identity, state, wake deadline, restarts, shared buffers, console
// output) plus the ARMv7-M saved context, memory manager and upcalls.
type Process struct {
	coreProcess

	// MM owns this process's memory and MPU bookkeeping.
	MM MemoryManager

	// Saved user context: the callee-saved registers the exception
	// frame does not capture, plus the process stack pointer.
	SavedRegs [8]uint32 // r4..r11
	PSP       uint32

	// initialBreak and stackSize are remembered from load time so the
	// restart policy can reset the process.
	initialBreak uint32
	stackSize    uint32

	// alarmGrant is the grant-backed alarm driver state (0 until the
	// first alarm syscall allocates it).
	alarmGrant uint32

	// Upcalls maps driver number to the subscribed callback.
	Upcalls map[uint32]Upcall
	// inUpcall marks that a callback frame is live on the process
	// stack; yieldPSP is the frame to restore when it returns.
	inUpcall bool
	yieldPSP uint32
	// upcallStub is the address of the injected SVC-return stub.
	upcallStub uint32
}

// Upcall is a subscribed callback: a function pointer in the process's
// flash plus opaque userdata passed back in r3.
type Upcall struct {
	Fn       uint32
	Userdata uint32
}

// buildInitialFrame lays a synthetic exception frame on the process stack
// so the first "resume" is indistinguishable from any later one — exactly
// how Tock starts processes. The stack pointer starts at the top of the
// declared stack area (clamped to the break) and the frame's return
// address is the entry point.
func (p *Process) buildInitialFrame(m *armv7m.Machine) error {
	layout := p.MM.Layout()
	stackTop := layout.MemoryStart + p.stackSize
	if p.stackSize == 0 || stackTop > layout.AppBreak {
		stackTop = layout.AppBreak
	}
	sp := (stackTop &^ 7) - 32 // 8-byte aligned, room for the 8-word frame
	words := [8]uint32{
		layout.MemoryStart, // r0: app arguments, Tock passes memory info
		layout.AppBreak,    // r1
		layout.MemoryEnd(), // r2
		layout.FlashStart,  // r3
		0,                  // r12
		0xFFFF_FFFF,        // lr: trap if the app returns from main
		p.Entry,            // return address = entry point
		0,                  // psr
	}
	for i, w := range words {
		if err := m.Mem.WriteWord(sp+uint32(4*i), w); err != nil {
			return fmt.Errorf("kernel: building initial frame for %s: %w", p.Name, err)
		}
	}
	p.PSP = sp
	return nil
}
