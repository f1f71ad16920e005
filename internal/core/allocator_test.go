package core

import (
	"strings"
	"testing"
	"testing/quick"

	"ticktock/internal/armv7m"
	"ticktock/internal/mpu"
	"ticktock/internal/riscv"
)

const (
	testPoolStart = 0x2000_0000
	testPoolSize  = 0x0002_0000
	testFlashBase = 0x0004_0000
	testFlashSize = 0x1000
)

func newArmAllocator(t *testing.T) (*AppMemoryAllocator[CortexMRegion], *CortexMMPU) {
	t.Helper()
	drv := newCortexDriver()
	return NewAllocator[CortexMRegion](drv, Config{}), drv
}

func allocate(t *testing.T, a *AppMemoryAllocator[CortexMRegion], appSize, kernelSize uint32) {
	t.Helper()
	// Declared total need leaves heap/grant growth room, as TBF headers do.
	minSize := appSize*2 + kernelSize + 4096
	if err := a.AllocateAppMemory(testPoolStart, testPoolSize, minSize, appSize, kernelSize, testFlashBase, testFlashSize); err != nil {
		t.Fatalf("AllocateAppMemory: %v", err)
	}
}

func TestAllocateAppMemoryBasicLayout(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 4096, 1024)
	b := a.Breaks()
	if b.MemoryStart() < testPoolStart {
		t.Fatalf("memoryStart=0x%x below pool", b.MemoryStart())
	}
	if b.AppBreak()-b.MemoryStart() < 4096 {
		t.Fatalf("accessible %d < requested", b.AppBreak()-b.MemoryStart())
	}
	if b.GrantSize() != 1024 {
		t.Fatalf("grant=%d", b.GrantSize())
	}
	if !(b.AppBreak() < b.KernelBreak()) {
		t.Fatal("invariant broken")
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateDerivesViewFromHardware(t *testing.T) {
	// The disagreement problem (§3.2): the kernel view must equal the
	// descriptor-reported accessible span exactly.
	a, _ := newArmAllocator(t)
	allocate(t, a, 5000, 512)
	start, end, ok := AccessibleSpan[CortexMRegion](a.Regions()[RAMRegion0], a.Regions()[RAMRegion1])
	if !ok {
		t.Fatal("span broken")
	}
	b := a.Breaks()
	if b.MemoryStart() != start || b.AppBreak() != end {
		t.Fatalf("kernel view [0x%x,0x%x) != hardware view [0x%x,0x%x)",
			b.MemoryStart(), b.AppBreak(), start, end)
	}
}

func TestAllocateRejectsWhenGrantDoesNotFit(t *testing.T) {
	a, _ := newArmAllocator(t)
	err := a.AllocateAppMemory(testPoolStart, 4096, 0, 4096, 2048, testFlashBase, testFlashSize)
	if err == nil {
		t.Fatal("allocation with no room for grant succeeded")
	}
}

func TestAllocateRejectsZeroRequest(t *testing.T) {
	a, _ := newArmAllocator(t)
	if err := a.AllocateAppMemory(testPoolStart, testPoolSize, 0, 0, 512, testFlashBase, testFlashSize); err == nil {
		t.Fatal("zero-size allocation succeeded")
	}
}

func TestAllocateHonorsMinSize(t *testing.T) {
	a, _ := newArmAllocator(t)
	if err := a.AllocateAppMemory(testPoolStart, testPoolSize, 8192, 100, 512, testFlashBase, testFlashSize); err != nil {
		t.Fatal(err)
	}
	b := a.Breaks()
	if b.MemorySize() < 8192 {
		t.Fatalf("minSize not honored: block=%d", b.MemorySize())
	}
	// The initial break covers only the initial need; growth room sits
	// between appBreak and kernelBreak.
	if b.AppBreak()-b.MemoryStart() >= 8192 {
		t.Fatalf("initial break consumed the whole block: %d", b.AppBreak()-b.MemoryStart())
	}
	if b.KernelBreak()-b.AppBreak() < 4096 {
		t.Fatalf("no growth room: %d", b.KernelBreak()-b.AppBreak())
	}
}

func TestBrkGrowShrink(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	b := a.Breaks()
	origBreak := b.AppBreak()

	// Grow within the slack below the kernel break.
	if err := a.Brk(origBreak + 64); err != nil {
		// Growth may be impossible if the hardware can't add a
		// subregion within kernelBreak; it must then fail cleanly.
		var ae *mpu.AllocateError
		if !asAllocateError(err, &ae) {
			t.Fatalf("Brk grow failed with unexpected error: %v", err)
		}
	} else {
		if b.AppBreak() < origBreak+64 {
			t.Fatalf("break did not grow: 0x%x", b.AppBreak())
		}
		if err := a.CheckCorrespondence(); err != nil {
			t.Fatal(err)
		}
	}

	// Shrink to half.
	target := b.MemoryStart() + (b.AppBreak()-b.MemoryStart())/2
	if err := a.Brk(target); err != nil {
		t.Fatalf("Brk shrink: %v", err)
	}
	if b.AppBreak() < target {
		t.Fatalf("shrink undershot requested break")
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
}

func asAllocateError(err error, target **mpu.AllocateError) bool {
	for e := err; e != nil; {
		if ae, ok := e.(*mpu.AllocateError); ok {
			*target = ae
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := e.(unwrapper)
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestBrkValidatesArguments(t *testing.T) {
	// The §2.2 underflow bug: a malicious brk argument must be rejected
	// by validation, never reach region arithmetic.
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	b := a.Breaks()
	if err := a.Brk(b.MemoryStart() - 4); err == nil {
		t.Fatal("brk below memoryStart accepted")
	}
	if err := a.Brk(b.KernelBreak()); err == nil {
		t.Fatal("brk onto kernelBreak accepted")
	}
	if err := a.Brk(0xFFFF_FFFF); err == nil {
		t.Fatal("brk to top of memory accepted")
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatalf("failed brk corrupted state: %v", err)
	}
}

func TestSbrk(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	b := a.Breaks()
	cur := b.AppBreak()
	nb, err := a.Sbrk(-512)
	if err != nil {
		t.Fatalf("sbrk shrink: %v", err)
	}
	if nb > cur {
		t.Fatalf("sbrk(-512) grew the break")
	}
	if _, err := a.Sbrk(-1 << 30); err == nil {
		t.Fatal("huge negative sbrk accepted")
	}
}

func TestAllocateGrantShrinksKernelBreak(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	b := a.Breaks()
	kb0 := b.KernelBreak()
	addr, err := a.AllocateGrant(100)
	if err != nil {
		t.Fatal(err)
	}
	if addr != kb0-104 { // 100 aligned up to 104
		t.Fatalf("grant addr=0x%x, want 0x%x", addr, kb0-104)
	}
	if b.KernelBreak() != addr {
		t.Fatal("kernel break not moved to grant base")
	}
	// Grant never becomes user-accessible: correspondence still holds
	// and the accessible span is unchanged.
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateGrantExhaustion(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	for i := 0; ; i++ {
		if _, err := a.AllocateGrant(256); err != nil {
			if i == 0 {
				t.Fatal("first grant failed")
			}
			break
		}
		if i > 10000 {
			t.Fatal("grant allocation never exhausted")
		}
	}
	if err := a.CheckCorrespondence(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigureMPUEndToEnd(t *testing.T) {
	a, drv := newArmAllocator(t)
	allocate(t, a, 4096, 1024)
	if err := a.ConfigureMPU(); err != nil {
		t.Fatal(err)
	}
	b := a.Breaks()
	hw := drv.HW
	// User can write all accessible RAM.
	if !hw.AccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), mpu.AccessWrite) {
		t.Fatal("accessible RAM denied")
	}
	// User can read+execute all flash.
	if !hw.AccessibleUser(b.FlashStart(), b.FlashSize(), mpu.AccessExecute) {
		t.Fatal("flash execute denied")
	}
	// User cannot touch the grant region — the paper's core theorem.
	for addr := b.KernelBreak(); addr < b.MemoryEnd(); addr += 4 {
		if hw.Allows(addr, mpu.AccessRead, false) {
			t.Fatalf("grant byte 0x%x user-readable", addr)
		}
	}
	// User cannot touch memory just outside the block.
	if hw.Allows(b.MemoryEnd()+64, mpu.AccessRead, false) {
		t.Fatal("past-block access allowed")
	}
	if hw.Allows(b.MemoryStart()-4, mpu.AccessWrite, false) {
		t.Fatal("pre-block access allowed")
	}
	// Kernel (privileged) retains access everywhere.
	if !hw.Allows(b.KernelBreak(), mpu.AccessWrite, true) {
		t.Fatal("kernel denied grant access")
	}
	a.DisableMPU()
	if hw.Snapshot().Ctrl&armv7m.CtrlEnable != 0 {
		t.Fatal("DisableMPU left enforcement on")
	}
}

func TestUserCanAccess(t *testing.T) {
	a, _ := newArmAllocator(t)
	allocate(t, a, 2048, 1024)
	b := a.Breaks()
	if !a.UserCanAccess(b.MemoryStart(), 100, mpu.AccessWrite) {
		t.Fatal("RAM write denied")
	}
	if a.UserCanAccess(b.KernelBreak(), 4, mpu.AccessRead) {
		t.Fatal("grant read allowed")
	}
	if !a.UserCanAccess(testFlashBase, 16, mpu.AccessRead) {
		t.Fatal("flash read denied")
	}
	if a.UserCanAccess(testFlashBase, 16, mpu.AccessWrite) {
		t.Fatal("flash write allowed")
	}
	if !a.UserCanAccess(testFlashBase, 16, mpu.AccessExecute) {
		t.Fatal("flash execute denied")
	}
	if a.UserCanAccess(b.MemoryStart(), 100, mpu.AccessExecute) {
		t.Fatal("RAM execute allowed")
	}
}

func TestPaddingConfig(t *testing.T) {
	plain := NewAllocator[CortexMRegion](newCortexDriver(), Config{})
	padded := NewAllocator[CortexMRegion](newCortexDriver(), Config{Padding: 412})
	for _, a := range []*AppMemoryAllocator[CortexMRegion]{plain, padded} {
		if err := a.AllocateAppMemory(testPoolStart, testPoolSize, 0, 4096, 1024, testFlashBase, testFlashSize); err != nil {
			t.Fatal(err)
		}
	}
	if padded.Breaks().MemorySize() != plain.Breaks().MemorySize()+412 {
		t.Fatalf("padding not applied: %d vs %d", padded.Breaks().MemorySize(), plain.Breaks().MemorySize())
	}
}

// --- RISC-V: same generic allocator code over the PMP driver ---

func newPMPAllocator(t *testing.T, chip riscv.ChipConfig) (*AppMemoryAllocator[PMPRegion], *PMPMPU) {
	t.Helper()
	drv := NewPMPMPU(riscv.NewPMP(chip))
	return NewAllocator[PMPRegion](drv, Config{}), drv
}

func TestAllocatorGenericOverPMPAllChips(t *testing.T) {
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			a, drv := newPMPAllocator(t, chip)
			flashSize := uint32(testFlashSize)
			if err := a.AllocateAppMemory(0x8000_0000, 0x2_0000, 0, 4096, 1024, 0x2000_0000, flashSize); err != nil {
				t.Fatalf("AllocateAppMemory on %s: %v", chip.Name, err)
			}
			if err := a.CheckCorrespondence(); err != nil {
				t.Fatal(err)
			}
			if err := a.ConfigureMPU(); err != nil {
				t.Fatal(err)
			}
			b := a.Breaks()
			hw := drv.HW
			if !hw.AccessibleUser(b.MemoryStart(), b.AppBreak()-b.MemoryStart(), mpu.AccessWrite) {
				t.Fatal("accessible RAM denied")
			}
			if hw.Allows(b.KernelBreak(), mpu.AccessRead, false) {
				t.Fatal("grant user-readable")
			}
			if !hw.AccessibleUser(0x2000_0000, flashSize, mpu.AccessExecute) {
				t.Fatal("flash execute denied")
			}
			// brk round trip.
			if err := a.Brk(b.MemoryStart() + 100); err != nil {
				t.Fatalf("brk: %v", err)
			}
			if err := a.CheckCorrespondence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPMPSingleRAMRegion(t *testing.T) {
	// Paper §6.2: one RAM region on RISC-V vs two on Cortex-M.
	a, _ := newPMPAllocator(t, riscv.ChipHiFive1)
	if err := a.AllocateAppMemory(0x8000_0000, 0x2_0000, 0, 12000, 1024, 0x2000_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if a.Regions()[RAMRegion1].IsSet() {
		t.Fatal("PMP allocation used two RAM regions")
	}
}

// Property: over random allocation parameters, a successful allocation
// always satisfies the correspondence invariants and never lets the
// configured hardware admit a user access to the grant region or outside
// the block. Exercised on both architectures.
func TestAllocatorIsolationProperty(t *testing.T) {
	f := func(appSel, kernelSel uint16, padSel uint8) bool {
		appSize := uint32(appSel)%10000 + 1
		kernelSize := uint32(kernelSel)%2000 + 8
		cfg := Config{Padding: uint32(padSel)}

		armDrv := newCortexDriver()
		arm := NewAllocator[CortexMRegion](armDrv, cfg)
		if err := arm.AllocateAppMemory(testPoolStart, testPoolSize, 0, appSize, kernelSize, testFlashBase, testFlashSize); err == nil {
			if err := arm.CheckCorrespondence(); err != nil {
				return false
			}
			if err := arm.ConfigureMPU(); err != nil {
				return false
			}
			b := arm.Breaks()
			for addr := b.KernelBreak(); addr < b.MemoryEnd(); addr += 16 {
				if armDrv.HW.Allows(addr, mpu.AccessRead, false) {
					return false
				}
			}
			if armDrv.HW.Allows(b.MemoryEnd(), mpu.AccessWrite, false) {
				return false
			}
		}

		pmpDrv := NewPMPMPU(riscv.NewPMP(riscv.ChipLiteX))
		pmp := NewAllocator[PMPRegion](pmpDrv, cfg)
		if err := pmp.AllocateAppMemory(0x8000_0000, 0x4_0000, 0, appSize, kernelSize, 0x2000_0000, 0x1000); err == nil {
			if err := pmp.CheckCorrespondence(); err != nil {
				return false
			}
			if err := pmp.ConfigureMPU(); err != nil {
				return false
			}
			b := pmp.Breaks()
			for addr := b.KernelBreak(); addr < b.MemoryEnd(); addr += 16 {
				if pmpDrv.HW.Allows(addr, mpu.AccessRead, false) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of brk/grant operations preserves correspondence.
func TestAllocatorOperationSequenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator[CortexMRegion](newCortexDriver(), Config{})
		if err := a.AllocateAppMemory(testPoolStart, testPoolSize, 0, 4096, 2048, testFlashBase, testFlashSize); err != nil {
			return false
		}
		b := a.Breaks()
		for _, op := range ops {
			switch op % 3 {
			case 0:
				_ = a.Brk(b.MemoryStart() + uint32(op)%0x3000)
			case 1:
				_, _ = a.AllocateGrant(uint32(op) % 300)
			case 2:
				_, _ = a.Sbrk(int32(op%200) - 100)
			}
			if err := a.CheckCorrespondence(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateErrorMessages(t *testing.T) {
	a, _ := newArmAllocator(t)
	err := a.AllocateAppMemory(testPoolStart, 64, 0, 100000, 512, testFlashBase, testFlashSize)
	if err == nil || !strings.Contains(err.Error(), "allocation failed") {
		t.Fatalf("err=%v", err)
	}
}
