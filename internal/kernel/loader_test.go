package kernel

import (
	"strings"
	"testing"

	"ticktock/internal/armv7m"
)

// Failure injection for the process loader: resource exhaustion and
// malformed requests must fail cleanly and leave the kernel able to load
// further processes.

func TestLoaderPoolExhaustion(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	big := App{
		Name: "big", MinRAM: 60000, InitRAM: 2048, Stack: 1024, KernelHint: 512,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	loaded := 0
	for i := 0; i < 64; i++ {
		if _, err := k.LoadProcess(big); err != nil {
			if loaded == 0 {
				t.Fatalf("first load failed: %v", err)
			}
			if !strings.Contains(err.Error(), "allocation failed") {
				t.Fatalf("unexpected exhaustion error: %v", err)
			}
			break
		}
		loaded++
	}
	if loaded == 0 || loaded >= 64 {
		t.Fatalf("loaded=%d, expected pool exhaustion partway", loaded)
	}
	// A small process still fits afterwards? Not necessarily (cursor
	// advanced), but the kernel must still run what it has.
	if _, err := k.Run(1000); err != nil {
		t.Fatalf("kernel wedged after exhaustion: %v", err)
	}
	for _, p := range k.Procs {
		if p.State != StateExited {
			t.Fatalf("%s state=%v", p.Name, p.State)
		}
	}
}

func TestLoaderRejectsBadGeometry(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	// InitRAM > MinRAM violates the TBF invariant at encode time.
	bad := App{
		Name: "bad", MinRAM: 1024, InitRAM: 2048, Stack: 512, KernelHint: 256,
		Build: func(base uint32) *armv7m.Program {
			a := armv7m.NewAssembler(base)
			emitExit(a, 0)
			return a.MustAssemble()
		},
	}
	if _, err := k.LoadProcess(bad); err == nil {
		t.Fatal("bad geometry accepted")
	}
	// The kernel remains usable.
	p := load(t, k, helloApp("after", "ok"))
	run(t, k)
	if k.Output(p) != "ok" {
		t.Fatalf("out=%q", k.Output(p))
	}
}

func TestLoaderRejectsOverlongName(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	bad := helloApp("this-name-is-way-too-long-for-a-tbf-header-field", "x")
	if _, err := k.LoadProcess(bad); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestLoaderManySmallProcesses(t *testing.T) {
	// Pack processes until the pool runs out; every loaded one must run
	// to completion with intact, non-overlapping layouts.
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	var procs []*Process
	for i := 0; i < 32; i++ {
		p, err := k.LoadProcess(App{
			Name: "p", MinRAM: 5120, InitRAM: 1536, Stack: 768, KernelHint: 256,
			Build: func(base uint32) *armv7m.Program {
				a := armv7m.NewAssembler(base)
				emitPuts(a, ".")
				emitExit(a, 0)
				return a.MustAssemble()
			},
		})
		if err != nil {
			break
		}
		procs = append(procs, p)
	}
	if len(procs) < 4 {
		t.Fatalf("only %d processes fit", len(procs))
	}
	for i := 1; i < len(procs); i++ {
		prev, cur := procs[i-1].MM.Layout(), procs[i].MM.Layout()
		if prev.MemoryEnd() > cur.MemoryStart {
			t.Fatalf("blocks overlap: %s / %s", prev, cur)
		}
	}
	run(t, k)
	for _, p := range procs {
		if p.State != StateExited || k.Output(p) != "." {
			t.Fatalf("%s: state=%v out=%q", p.Name, p.State, k.Output(p))
		}
	}
}

func TestLoaderFlashSlotAlignment(t *testing.T) {
	// Flash slots are power-of-two sized and aligned so the MPU can
	// cover them exactly on v7-M.
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	for i := 0; i < 5; i++ {
		p := load(t, k, helloApp("x", strings.Repeat("y", 3+i*7)))
		l := p.MM.Layout()
		if l.FlashSize&(l.FlashSize-1) != 0 {
			t.Fatalf("flash size %d not a power of two", l.FlashSize)
		}
		if l.FlashStart%l.FlashSize != 0 {
			t.Fatalf("flash slot 0x%x not aligned to %d", l.FlashStart, l.FlashSize)
		}
	}
}

// TestLoaderRebuildsWhenSlotMoves loads a small app and then one whose
// image needs a larger, more aligned flash slot. The loader's first
// build, at the code base the next slot would have, is then wrong, so
// it builds again at the real base, and the program it maps starts at
// the process entry.
func TestLoaderRebuildsWhenSlotMoves(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	load(t, k, helloApp("small", "a"))
	msg := strings.Repeat("b", 100)
	big := helloApp("big", msg)
	var bases []uint32
	build := big.Build
	big.Build = func(base uint32) *armv7m.Program {
		bases = append(bases, base)
		return build(base)
	}
	p := load(t, k, big)
	run(t, k)
	if len(bases) != 2 || bases[0] == p.Entry || bases[1] != p.Entry {
		t.Fatalf("builds at %x, want one elsewhere and then one at the entry 0x%x", bases, p.Entry)
	}
	if prog := k.Board.Machine.ProgramAt(p.Entry); prog == nil || prog.Base != p.Entry {
		t.Fatalf("no program based at the entry 0x%x", p.Entry)
	}
	if got := k.Output(p); got != msg {
		t.Fatalf("output %q", got)
	}
}
