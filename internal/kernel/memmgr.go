// Package kernel is the ARMv7-M port of the Tock-style kernel of
// TickTock-Go: process loading (TBF images in flash), the process
// abstraction with grant regions, the syscalls only this port has
// (subscribe and upcall delivery, the grant-backed alarm, buffer fill
// and IPC), Figure 11's instrumented methods, and the context-switch
// path through the ARMv7-M machine model (MPU, SysTick, hardware
// exception frames). The scheduler, fault supervision, instrumentation
// and the syscall ABI with its shared drivers are the port-neutral core
// it shares with the RISC-V port (internal/kcore).
//
// The kernel is parameterized by a MemoryManager so the same kernel can be
// built in two flavours: the TickTock flavour over the granular abstraction
// (internal/core) and the Tock baseline flavour over the monolithic
// abstraction (internal/monolithic). The differential-testing campaign
// (§6.1) and every Figure 11 benchmark run both flavours on identical
// workloads.
package kernel

import "ticktock/internal/kcore"

// Layout is a read-only snapshot of a process's memory layout.
type Layout = kcore.Layout

// MemoryManager abstracts the per-process memory and MPU bookkeeping. Two
// implementations exist: granularMM (TickTock) and monolithicMM (Tock
// baseline). The embedded kcore.Memory is the part the shared syscall
// ABI drives: the break, grants, buffer validation and the layout.
type MemoryManager interface {
	kcore.Memory
	// Allocate sets up the process memory block and flash region.
	Allocate(unallocStart, unallocSize, minSize, appSize, kernelSize, flashStart, flashSize uint32) error
	// ConfigureMPU programs the hardware for this process (the
	// instrumented setup_mpu path).
	ConfigureMPU() error
	// DisableMPU relaxes enforcement for kernel execution.
	DisableMPU()
	// AccessibleEnd returns the end of the user-accessible span as the
	// *hardware* enforces it. For the granular manager this equals
	// Layout().AppBreak by construction; for the monolithic baseline it
	// is decoded from the MPU registers and can exceed the kernel's
	// believed break (the §3.2 disagreement).
	AccessibleEnd() uint32
	// ShareRegion maps a foreign memory span (another process's shared
	// RAM) into this process's protection configuration — Tock's
	// MPU-mediated IPC. UnshareRegion removes it.
	ShareRegion(start, size uint32, writable bool) error
	UnshareRegion() error
}
