// Package kernel is the ARMv7-M port of the Tock-style kernel of
// TickTock-Go: process loading (TBF images in flash), the process
// abstraction with grant regions and brk/sbrk, syscall dispatch with
// capsule-style drivers and upcalls, and the context-switch path through
// the ARMv7-M machine model (MPU, SysTick, hardware exception frames).
// The scheduler, fault supervision and instrumentation are the
// port-neutral core it shares with the RISC-V port (internal/kcore).
//
// The kernel is parameterized by a MemoryManager so the same kernel can be
// built in two flavours: the TickTock flavour over the granular abstraction
// (internal/core) and the Tock baseline flavour over the monolithic
// abstraction (internal/monolithic). The differential-testing campaign
// (§6.1) and every Figure 11 benchmark run both flavours on identical
// workloads.
package kernel

import (
	"fmt"

	"ticktock/internal/mpu"
)

// Layout is a read-only snapshot of a process's memory layout, used for
// fault reports and the memory microbenchmark.
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

// MemoryManager abstracts the per-process memory and MPU bookkeeping. Two
// implementations exist: granularMM (TickTock) and monolithicMM (Tock
// baseline).
type MemoryManager interface {
	// Allocate sets up the process memory block and flash region.
	Allocate(unallocStart, unallocSize, minSize, appSize, kernelSize, flashStart, flashSize uint32) error
	// Brk moves the end of process-accessible memory.
	Brk(newBreak uint32) error
	// Sbrk adjusts the break by a signed delta, returning the new break.
	Sbrk(delta int32) (uint32, error)
	// AllocateGrant carves an aligned grant allocation out of the
	// kernel-owned region, returning its base address.
	AllocateGrant(size uint32) (uint32, error)
	// ConfigureMPU programs the hardware for this process (the
	// instrumented setup_mpu path).
	ConfigureMPU() error
	// DisableMPU relaxes enforcement for kernel execution.
	DisableMPU()
	// Layout returns the kernel's current view of the process layout.
	Layout() Layout
	// AccessibleEnd returns the end of the user-accessible span as the
	// *hardware* enforces it. For the granular manager this equals
	// Layout().AppBreak by construction; for the monolithic baseline it
	// is decoded from the MPU registers and can exceed the kernel's
	// believed break (the §3.2 disagreement).
	AccessibleEnd() uint32
	// UserCanAccess validates a user-supplied buffer span (the
	// build_readonly_buffer / build_readwrite_buffer paths).
	UserCanAccess(start, size uint32, kind mpu.AccessKind) bool
	// ShareRegion maps a foreign memory span (another process's shared
	// RAM) into this process's protection configuration — Tock's
	// MPU-mediated IPC. UnshareRegion removes it.
	ShareRegion(start, size uint32, writable bool) error
	UnshareRegion() error
}
