// Package mpu defines the hardware-independent vocabulary shared by every
// memory-protection component in TickTock-Go: access permissions, access
// kinds, and the errors surfaced when a protection configuration cannot be
// realized on a given piece of hardware.
//
// The package deliberately contains no behaviour beyond small pure helpers;
// both the ARMv7-M MPU model (internal/armv7m) and the RISC-V PMP model
// (internal/riscv) speak in these types, as do the granular
// (internal/core) and monolithic (internal/monolithic) kernel abstractions.
package mpu

import "fmt"

// Permissions describes the access rights a process is granted to a region
// of memory. It mirrors Tock's mpu::Permissions enum.
type Permissions uint8

const (
	// NoAccess denies all user access. The zero value is deliberately the
	// most restrictive setting so that forgetting to set permissions fails
	// closed.
	NoAccess Permissions = iota
	// ReadOnly grants user read access.
	ReadOnly
	// ReadWriteOnly grants user read and write access (no execute). Used
	// for process RAM: stack, data and heap.
	ReadWriteOnly
	// ReadExecuteOnly grants user read and execute access. Used for
	// process code in flash.
	ReadExecuteOnly
	// ReadWriteExecute grants everything. Tock never hands this to a
	// process, but drivers and tests need to express it.
	ReadWriteExecute
)

// String implements fmt.Stringer.
func (p Permissions) String() string {
	switch p {
	case NoAccess:
		return "---"
	case ReadOnly:
		return "r--"
	case ReadWriteOnly:
		return "rw-"
	case ReadExecuteOnly:
		return "r-x"
	case ReadWriteExecute:
		return "rwx"
	default:
		return fmt.Sprintf("Permissions(%d)", uint8(p))
	}
}

// AllowsRead reports whether the permission set includes read access.
func (p Permissions) AllowsRead() bool {
	return p == ReadOnly || p == ReadWriteOnly || p == ReadExecuteOnly || p == ReadWriteExecute
}

// AllowsWrite reports whether the permission set includes write access.
func (p Permissions) AllowsWrite() bool {
	return p == ReadWriteOnly || p == ReadWriteExecute
}

// AllowsExecute reports whether the permission set includes execute access.
func (p Permissions) AllowsExecute() bool {
	return p == ReadExecuteOnly || p == ReadWriteExecute
}

// Allows reports whether the permission set admits the given access kind.
func (p Permissions) Allows(k AccessKind) bool {
	switch k {
	case AccessRead:
		return p.AllowsRead()
	case AccessWrite:
		return p.AllowsWrite()
	case AccessExecute:
		return p.AllowsExecute()
	default:
		return false
	}
}

// AccessKind is the kind of memory access being attempted.
type AccessKind uint8

const (
	// AccessRead is a data load.
	AccessRead AccessKind = iota
	// AccessWrite is a data store.
	AccessWrite
	// AccessExecute is an instruction fetch.
	AccessExecute
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExecute:
		return "execute"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// ProtectionError describes a memory access denied by protection hardware.
// It is the simulated equivalent of an ARMv7-M MemManage fault or a RISC-V
// access fault. The protection units only answer Allows; the machines
// build this value at their fault sites.
type ProtectionError struct {
	Addr uint32
	Kind AccessKind
	// Privileged records whether the faulting access was made in
	// privileged mode. Privileged accesses normally bypass the MPU;
	// a privileged ProtectionError therefore indicates a region was
	// configured with the privileged-deny attribute.
	Privileged bool
}

// Error implements the error interface.
func (e *ProtectionError) Error() string {
	mode := "unprivileged"
	if e.Privileged {
		mode = "privileged"
	}
	return fmt.Sprintf("mpu: %s %s access to 0x%08x denied", mode, e.Kind, e.Addr)
}

// AllocateError enumerates reasons a protection region request cannot be
// satisfied. It mirrors TickTock's AllocateAppMemoryError.
type AllocateError struct {
	Reason string
}

// Error implements the error interface.
func (e *AllocateError) Error() string { return "mpu: allocation failed: " + e.Reason }

// ErrFlash reports a failure to create the flash (code) region.
func ErrFlash(why string) *AllocateError { return &AllocateError{Reason: "flash region: " + why} }

// ErrHeap reports a failure to create the RAM (stack/data/heap) regions.
func ErrHeap(why string) *AllocateError { return &AllocateError{Reason: "ram region: " + why} }
