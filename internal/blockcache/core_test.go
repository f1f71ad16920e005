package blockcache

import (
	"strings"
	"testing"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// stubInstr is the least a port's instruction offers the core: a cost.
type stubInstr uint64

func (i stubInstr) Cost() uint64 { return uint64(i) }

func notPure(stubInstr) bool { return false }

// stubProgram is n one-cycle instructions at base.
func stubProgram(base uint32, n int) *Program[stubInstr] {
	p := &Program[stubInstr]{Base: base}
	for i := 0; i < n; i++ {
		p.Instrs = append(p.Instrs, 1)
	}
	return p
}

// stubUnit lets privileged code execute everywhere and user code only
// below userEnd.
type stubUnit struct{ userEnd uint32 }

func (u *stubUnit) Allows(addr uint32, kind mpu.AccessKind, privileged bool) bool {
	return kind != mpu.AccessExecute || privileged || addr < u.userEnd
}

func (u *stubUnit) Boundaries() []uint64 { return []uint64{uint64(u.userEnd)} }

func TestLoadProgramRejectsOverlap(t *testing.T) {
	var c Core[stubInstr]
	if err := c.LoadProgram(stubProgram(0x100, 4)); err != nil {
		t.Fatal(err)
	}
	err := c.LoadProgram(stubProgram(0x10c, 4))
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping program accepted: %v", err)
	}
	if err := c.LoadProgram(stubProgram(0x110, 4)); err != nil {
		t.Fatalf("adjacent program rejected: %v", err)
	}
	if err := c.LoadProgram(stubProgram(0xf0, 5)); err == nil {
		t.Fatal("program overlapping from below accepted")
	}
}

func TestProgramAtEdges(t *testing.T) {
	var c Core[stubInstr]
	hi, lo := stubProgram(0x200, 2), stubProgram(0x100, 4)
	for _, p := range []*Program[stubInstr]{hi, lo} { // out of base order
		if err := c.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		addr uint32
		want *Program[stubInstr]
	}{
		{0xff, nil}, {0x100, lo}, {0x10f, lo}, {0x110, nil},
		{0x1ff, nil}, {0x200, hi}, {0x207, hi}, {0x208, nil},
	} {
		if got := c.ProgramAt(tc.addr); got != tc.want {
			t.Errorf("ProgramAt(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
	// A misaligned address finds its program but no instruction, and
	// no block.
	if lo.At(0x101) != 0 || lo.At(0x104) != 1 {
		t.Fatal("At must resolve only aligned addresses")
	}
	c.SetFastCore(true)
	if c.BuildBlock(0x102, notPure) != nil || c.BuildBlock(0x110, notPure) != nil {
		t.Fatal("built a block at a misaligned or unmapped pc")
	}
}

func TestLoadProgramFlushesBlocks(t *testing.T) {
	var c Core[stubInstr]
	if err := c.LoadProgram(stubProgram(0x100, 4)); err != nil {
		t.Fatal(err)
	}
	c.SetFastCore(true)
	table := c.Fast().Table
	if b := c.BuildBlock(0x100, notPure); b == nil || len(b.Instrs) != 4 || b.Prefix[4] != 4 {
		t.Fatalf("block at 0x100: %+v", b)
	}
	if table.Lookup(0x100) == nil {
		t.Fatal("built block not cached")
	}
	if err := c.LoadProgram(stubProgram(0x200, 4)); err != nil {
		t.Fatal(err)
	}
	if table.Lookup(0x100) != nil {
		t.Fatal("block survived a program load")
	}
	c.BuildBlock(0x100, notPure)
	if st := c.FastStats(); st.Flushes != 1 || st.Builds != 2 {
		t.Fatalf("flushes=%d builds=%d, want 1 and 2", st.Flushes, st.Builds)
	}
}

func TestRecheckOncePerMapOrPrivilege(t *testing.T) {
	var c Core[stubInstr]
	c.SetFastCore(true)
	if err := c.LoadProgram(stubProgram(0x100, 8)); err != nil {
		t.Fatal(err)
	}
	unit := &stubUnit{userEnd: 0x108}
	cache := accessmap.NewCache(unit)
	// enter is a port's block entry: the inline hit path, calling the
	// core only on a miss or on a new map or privilege.
	enter := func(priv bool) int {
		b := c.Fast().Table.Lookup(0x100)
		if b == nil {
			b = c.BuildBlock(0x100, notPure)
		}
		if am := cache.Current(); am == nil || b.Map != am || b.Priv != priv {
			c.Recheck(b, cache.AccessMap(), priv)
		}
		return b.Cover
	}
	for _, step := range []struct {
		name     string
		priv     bool
		userEnd  uint32 // 0 keeps the configuration
		cover    int
		rechecks uint64
	}{
		{"first entry", false, 0, 2, 1},
		{"same map and privilege", false, 0, 2, 1},
		{"privileged", true, 0, 8, 2},
		{"privileged again", true, 0, 8, 2},
		{"back to user", false, 0, 2, 3},
		{"new map", false, 0x10c, 3, 4},
		{"same new map", false, 0, 3, 4},
	} {
		if step.userEnd != 0 {
			unit.userEnd = step.userEnd
			cache.Invalidate()
		}
		if got := enter(step.priv); got != step.cover {
			t.Fatalf("%s: cover %d, want %d", step.name, got, step.cover)
		}
		if got := c.FastStats().CoverRechecks; got != step.rechecks {
			t.Fatalf("%s: %d cover rechecks, want %d", step.name, got, step.rechecks)
		}
	}
	c.Fallback(nil)
	c.Fallback(c.Fast().Table.Lookup(0x100))
	if st := c.FastStats(); st.SlowNoBlock != 1 || st.SlowDenied != 1 || st.SlowSteps != 2 {
		t.Fatalf("fallback counters %+v", st)
	}
}
