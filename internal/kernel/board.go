package kernel

import (
	"fmt"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
)

// Memory map of the simulated board, modelled on the NRF52840: 1 MiB of
// flash at 0 and 256 KiB of RAM at 0x2000_0000. The kernel owns the lower
// flash and the top of RAM; application flash slots and the process RAM
// pool fill the rest.
const (
	FlashBase = 0x0000_0000
	FlashSize = 0x0010_0000

	RAMBase = 0x2000_0000
	RAMSize = 0x0004_0000

	// AppFlashBase is where application images start.
	AppFlashBase = 0x0004_0000

	// KernelRAMSize is reserved at the top of RAM for the kernel stack
	// and data.
	KernelRAMSize = 0x0001_0000

	// KernelLowRAMSize is reserved at the bottom of RAM for kernel data,
	// as on Tock's NRF52840 layout. It doubles as a guard: a process
	// stack overrun lands in mapped-but-protected memory, so the CPU
	// takes a clean MemManage fault instead of locking up on exception
	// stacking into unmapped space.
	KernelLowRAMSize = 0x1000

	// ProcessPoolBase/Size is the RAM handed to the process allocators.
	ProcessPoolBase = RAMBase + KernelLowRAMSize
	ProcessPoolSize = RAMSize - KernelRAMSize - KernelLowRAMSize

	// KernelStackTop is the initial MSP.
	KernelStackTop = RAMBase + RAMSize - 16

	// KernelDataBase is a kernel-owned RAM address used by isolation
	// tests as a victim location.
	KernelDataBase = RAMBase + RAMSize - KernelRAMSize
)

// Board ties the machine model to the kernel's memory map.
type Board struct {
	Machine *armv7m.Machine
	Meter   *cycles.Meter

	// nextFlashSlot is the bump pointer for application flash slots.
	nextFlashSlot uint32
}

// NewBoard constructs the simulated chip.
func NewBoard() (*Board, error) {
	mem := armv7m.NewMemory()
	if _, err := mem.Map("flash", FlashBase, FlashSize); err != nil {
		return nil, err
	}
	if _, err := mem.Map("ram", RAMBase, RAMSize); err != nil {
		return nil, err
	}
	m := armv7m.NewMachine(mem)
	m.CPU.MSP = KernelStackTop
	return &Board{
		Machine:       m,
		Meter:         m.Meter,
		nextFlashSlot: AppFlashBase,
	}, nil
}

// AllocFlashSlot reserves a power-of-two-sized, size-aligned flash slot of
// at least need bytes, so the MPU can cover it exactly, and returns its
// base.
func (b *Board) AllocFlashSlot(need uint32) (base, size uint32, err error) {
	size = 32
	for size < need {
		size <<= 1
	}
	base = (b.nextFlashSlot + size - 1) &^ (size - 1)
	if uint64(base)+uint64(size) > FlashBase+FlashSize {
		return 0, 0, fmt.Errorf("kernel: flash exhausted (need %d bytes)", need)
	}
	b.nextFlashSlot = base + size
	return base, size, nil
}

// WriteFlash stores raw image bytes (e.g. a TBF header) into flash.
func (b *Board) WriteFlash(addr uint32, data []byte) error {
	return b.Machine.Mem.WriteBytes(addr, data)
}

// ReadRAM is a kernel-privilege read used by drivers (the MPU does not
// constrain the kernel).
func (b *Board) ReadRAM(addr, n uint32) ([]byte, error) {
	return b.Machine.Mem.ReadBytes(addr, n)
}
