package ticktock

import (
	"runtime"
	"testing"

	"ticktock/internal/kernel"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
)

// TestBootAllocationGuard pins the sparse physical memory behind both
// kernel ports. A boot maps 1 MiB of flash and 256 KiB of RAM, but
// storage is allocated only when a page is first written, so a boot
// allocates page tables and kernel structures, not the chip: a few KiB.
// Backing the segments densely again would allocate about 1.3 MB per
// boot.
func TestBootAllocationGuard(t *testing.T) {
	const (
		boots = 32
		limit = 64 << 10 // bytes per boot
	)
	ports := []struct {
		name string
		boot func() error
	}{
		{"armv7m", func() error { _, err := kernel.New(kernel.Options{}); return err }},
		{"rv32", func() error { _, err := rvkernel.New(riscv.ChipHiFive1); return err }},
	}
	for _, pt := range ports {
		if err := pt.boot(); err != nil { // first-use allocations stay out of the count
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < boots; i++ {
			if err := pt.boot(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perBoot := (after.TotalAlloc - before.TotalAlloc) / boots
		t.Logf("%s: %d bytes allocated per boot", pt.name, perBoot)
		if perBoot >= limit {
			t.Errorf("%s: a boot allocates %d bytes (limit %d): is physical memory backed densely again?", pt.name, perBoot, limit)
		}
	}
}
