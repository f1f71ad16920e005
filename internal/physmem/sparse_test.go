package physmem

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"testing"
)

// flatMemory is the reference model for the sparse Memory: every
// segment is one dense, zeroed []byte, and each rule is written out in
// its plainest form, with no last-hit cache and no pages.
type flatMemory struct {
	segs  []flatSegment
	dirty map[uint32]bool // nil while tracking is off
}

type flatSegment struct {
	base uint32
	data []byte
}

func (s flatSegment) end() uint64 { return uint64(s.base) + uint64(len(s.data)) }

func (f *flatMemory) mapSegment(base, size uint32) bool {
	end := uint64(base) + uint64(size)
	if size == 0 || end > 1<<32 {
		return false
	}
	for _, s := range f.segs {
		if uint64(base) < s.end() && uint64(s.base) < end {
			return false
		}
	}
	f.segs = append(f.segs, flatSegment{base: base, data: make([]byte, size)})
	return true
}

// span returns the bytes backing [addr, addr+n) for n >= 1, or nil when
// no one segment backs them all.
func (f *flatMemory) span(addr, n uint32) []byte {
	for _, s := range f.segs {
		if addr >= s.base && uint64(addr)+uint64(n) <= s.end() {
			off := addr - s.base
			return s.data[off : off+n]
		}
	}
	return nil
}

func (f *flatMemory) write(addr uint32, b []byte) bool {
	dst := f.span(addr, uint32(len(b)))
	if dst == nil {
		return false
	}
	copy(dst, b)
	if f.dirty != nil {
		for i := range b {
			f.dirty[(addr+uint32(i))&^(DirtyPageSize-1)] = true
		}
	}
	return true
}

// trackDirty marks exactly the pages that hold a non-zero byte.
func (f *flatMemory) trackDirty() {
	f.dirty = map[uint32]bool{}
	for _, s := range f.segs {
		for i, b := range s.data {
			if b != 0 {
				f.dirty[(s.base+uint32(i))&^(DirtyPageSize-1)] = true
			}
		}
	}
}

func (f *flatMemory) drainDirty() []uint32 {
	var out []uint32
	for p := range f.dirty {
		out = append(out, p)
	}
	clear(f.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// addr decodes an operation's address so that random inputs land on
// the interesting places often: the top two bits pick anywhere in a
// low 128 KiB window, just below a 4 KiB boundary (page 0's wraps to
// the top of the address space), just below a mapped segment's end, or
// the top 64 KiB of the address space.
func (f *flatMemory) addr(raw uint32) uint32 {
	switch raw >> 30 {
	case 1:
		return (raw>>4&0x1f)<<12 - raw&0xf
	case 2:
		if len(f.segs) > 0 {
			s := f.segs[int(raw>>4)%len(f.segs)]
			return uint32(s.end()) - raw&0xf
		}
	case 3:
		return 0xffff_0000 | raw&0xffff
	}
	return raw & 0x1_ffff
}

// Operation codes of the differential program: each operation is nine
// bytes, the code (mod opCount), a little-endian address word decoded by
// flatMemory.addr, and a little-endian argument word.
const (
	opMap = iota
	opLoadByte
	opStoreByte
	opReadWord
	opWriteWord
	opReadBytes
	opWriteBytes
	opTrackDirty
	opDrainDirty
	opSegment
	opZero
	opCount

	opLen = 9
)

// checkErr asserts an access failed exactly when the reference says it
// must, and then with a *BusError naming the access's address.
func checkErr(t *testing.T, what string, addr uint32, err error, ok bool) {
	t.Helper()
	if ok {
		if err != nil {
			t.Fatalf("%s 0x%08x: unexpected error %v", what, addr, err)
		}
		return
	}
	var be *BusError
	if !errors.As(err, &be) || be.Addr != addr {
		t.Fatalf("%s 0x%08x: got %v, want a bus error at that address", what, addr, err)
	}
}

// runDifferential applies one program to a Memory and to the flat
// reference and fails on the first difference in a value, a bus error
// or a drained dirty set. Byte spans are never empty: an empty span at
// a segment end is accepted or refused depending on the last-hit cache,
// as it always has been, and the reference has no cache.
func runDifferential(t *testing.T, prog []byte) {
	m, ref := NewMemory(), &flatMemory{}
	for ; len(prog) >= opLen; prog = prog[opLen:] {
		code := prog[0] % opCount
		addr := ref.addr(binary.LittleEndian.Uint32(prog[1:]))
		arg := binary.LittleEndian.Uint32(prog[5:])
		switch code {
		case opMap:
			size := arg & 0x3fff
			seg, err := m.Map("seg", addr, size)
			if ok := ref.mapSegment(addr, size); ok != (err == nil) {
				t.Fatalf("Map(0x%08x, 0x%x): err=%v, reference ok=%v", addr, size, err, ok)
			} else if ok && (seg.Base != addr || seg.End() != addr+size || !seg.Contains(addr) || !seg.Contains(addr+size-1)) {
				t.Fatalf("Map(0x%08x, 0x%x) gave base 0x%08x end 0x%08x", addr, size, seg.Base, seg.End())
			}
		case opLoadByte:
			got, err := m.LoadByte(addr)
			want := ref.span(addr, 1)
			checkErr(t, "LoadByte", addr, err, want != nil)
			if want != nil && got != want[0] {
				t.Fatalf("LoadByte 0x%08x = 0x%02x, want 0x%02x", addr, got, want[0])
			}
		case opStoreByte:
			err := m.StoreByte(addr, byte(arg))
			checkErr(t, "StoreByte", addr, err, ref.write(addr, []byte{byte(arg)}))
		case opReadWord:
			got, err := m.ReadWord(addr)
			want := ref.span(addr, 4)
			checkErr(t, "ReadWord", addr, err, want != nil)
			if want != nil && got != binary.LittleEndian.Uint32(want) {
				t.Fatalf("ReadWord 0x%08x = 0x%08x, want 0x%08x", addr, got, binary.LittleEndian.Uint32(want))
			}
		case opWriteWord:
			err := m.WriteWord(addr, arg)
			checkErr(t, "WriteWord", addr, err, ref.write(addr, binary.LittleEndian.AppendUint32(nil, arg)))
		case opReadBytes:
			n := arg&0x1fff + 1
			got, err := m.ReadBytes(addr, n)
			want := ref.span(addr, n)
			checkErr(t, "ReadBytes", addr, err, want != nil)
			if want != nil && !slices.Equal(got, want) {
				t.Fatalf("ReadBytes(0x%08x, %d) differs from the reference", addr, n)
			}
		case opWriteBytes:
			b := make([]byte, arg&0x1fff+1)
			if arg>>31 == 0 {
				for i := range b {
					b[i] = byte(arg>>16) + byte(i)
				}
			}
			err := m.WriteBytes(addr, b)
			checkErr(t, "WriteBytes", addr, err, ref.write(addr, b))
		case opTrackDirty:
			m.TrackDirty()
			ref.trackDirty()
		case opDrainDirty:
			if got, want := m.DrainDirty(), ref.drainDirty(); !slices.Equal(got, want) {
				t.Fatalf("DrainDirty = %x, want %x", got, want)
			}
		case opSegment:
			seg, want := m.Segment(addr), ref.span(addr, 1) != nil
			if (seg != nil) != want || seg != nil && !seg.Contains(addr) {
				t.Fatalf("Segment(0x%08x) = %v, reference backed=%v", addr, seg, want)
			}
		case opZero:
			// The reference writes the zeros byte by byte, so it marks
			// the pages a WriteWord loop over the span would mark.
			n := arg&0x1fff + 1
			fresh := unallocated(m, addr, n)
			err := m.Zero(addr, n)
			checkErr(t, "Zero", addr, err, ref.write(addr, make([]byte, n)))
			if got := unallocated(m, addr, n); !slices.Equal(got, fresh) {
				t.Fatalf("Zero(0x%08x, %d) allocated pages: unallocated %x before, %x after", addr, n, fresh, got)
			}
		}
	}
	// Whatever the program did, the whole contents agree, and a fresh
	// scan marks exactly the pages holding a non-zero byte.
	for _, s := range ref.segs {
		got, err := m.ReadBytes(s.base, uint32(len(s.data)))
		if err != nil || !slices.Equal(got, s.data) {
			t.Fatalf("segment 0x%08x: contents differ from the reference (err=%v)", s.base, err)
		}
	}
	m.TrackDirty()
	ref.trackDirty()
	if got, want := m.DrainDirty(), ref.drainDirty(); !slices.Equal(got, want) {
		t.Fatalf("final TrackDirty marked %x, want %x", got, want)
	}
}

// unallocated returns the numbers of the storage pages overlapping
// [addr, addr+n) that have none yet, in every segment the span touches.
func unallocated(m *Memory, addr, n uint32) []uint32 {
	var out []uint32
	end := uint64(addr) + uint64(n)
	for _, s := range m.segs {
		lo, hi := max(uint64(addr), uint64(s.Base)), min(end, s.end)
		for pg := lo >> pageShift; lo < hi && pg <= (hi-1)>>pageShift; pg++ {
			if s.pages[uint32(pg)-s.first] == nil {
				out = append(out, uint32(pg))
			}
		}
	}
	return out
}

// FuzzMemory runs random operation programs differentially against the
// flat reference. The committed corpus (testdata/fuzz/FuzzMemory) holds
// the cases TestSparsePages pins by hand. Run it open-ended with
//
//	go test -run '^$' -fuzz FuzzMemory -fuzztime 20s ./internal/physmem
func FuzzMemory(f *testing.F) {
	f.Fuzz(runDifferential)
}

// TestZeroMatchesWordLoop pins what the loaders rely on when they zero
// a process block with Zero instead of a WriteWord loop: the same
// contents and the same dirty pages, with no page allocated that the
// span did not already hold.
func TestZeroMatchesWordLoop(t *testing.T) {
	mems := [2]*Memory{NewMemory(), NewMemory()}
	for _, m := range mems {
		if _, err := m.Map("ram", 0x2000_0000, 0x4000); err != nil {
			t.Fatal(err)
		}
		// One written page inside the span, one past its end.
		for _, a := range []uint32{0x2000_1ff8, 0x2000_3004} {
			if err := m.WriteWord(a, 0xdeadbeef); err != nil {
				t.Fatal(err)
			}
		}
		m.TrackDirty()
		m.DrainDirty()
	}
	const start, end = 0x2000_0f80, 0x2000_2100 // straddles three pages
	for a := uint32(start); a < end; a += 4 {
		if err := mems[0].WriteWord(a, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mems[1].Zero(start, end-start); err != nil {
		t.Fatal(err)
	}
	if loop, zero := mems[0].DrainDirty(), mems[1].DrainDirty(); !slices.Equal(loop, zero) {
		t.Fatalf("Zero marked %x, the word loop %x", zero, loop)
	}
	a, _ := mems[0].ReadBytes(0x2000_0000, 0x4000)
	b, _ := mems[1].ReadBytes(0x2000_0000, 0x4000)
	if !slices.Equal(a, b) {
		t.Fatal("Zero left different contents from the word loop")
	}
	if got := unallocated(mems[1], 0x2000_0000, 0x4000); !slices.Equal(got, []uint32{0x2_0000, 0x2_0002}) {
		t.Fatalf("after Zero, unallocated pages %x, want [20000 20002]", got)
	}
	var be *BusError
	if err := mems[1].Zero(0x2000_3ffc, 8); !errors.As(err, &be) || be.Addr != 0x2000_3ffc {
		t.Fatalf("Zero past the segment end: %v", err)
	}
}

// TestSparsePages pins, without the reference, the three cases where a
// paged backing most easily diverges from a flat one.
func TestSparsePages(t *testing.T) {
	t.Run("zero write to a fresh page stays clean", func(t *testing.T) {
		m := NewMemory()
		if _, err := m.Map("ram", 0x2000_0000, 0x2000); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteWord(0x2000_1100, 0); err != nil {
			t.Fatal(err)
		}
		m.TrackDirty()
		if got := m.DrainDirty(); len(got) != 0 {
			t.Fatalf("TrackDirty marked %x after a zero write, want nothing", got)
		}
	})
	t.Run("non-zero byte in a short last page", func(t *testing.T) {
		m := NewMemory()
		if _, err := m.Map("ram", 0x1000, 0x1100); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreByte(0x20ff, 0x5a); err != nil {
			t.Fatal(err)
		}
		if v, err := m.LoadByte(0x20ff); err != nil || v != 0x5a {
			t.Fatalf("LoadByte = 0x%02x, %v", v, err)
		}
		var be *BusError
		if err := m.StoreByte(0x2100, 1); !errors.As(err, &be) || be.Addr != 0x2100 {
			t.Fatalf("store past the short page: %v", err)
		}
		m.TrackDirty()
		if got := m.DrainDirty(); !slices.Equal(got, []uint32{0x2000}) {
			t.Fatalf("TrackDirty marked %x, want [2000]", got)
		}
	})
	t.Run("word at page offset 4094", func(t *testing.T) {
		m := NewMemory()
		if _, err := m.Map("ram", 0x1000, 0x2000); err != nil {
			t.Fatal(err)
		}
		m.TrackDirty()
		if err := m.WriteWord(0x1ffe, 0xaabbccdd); err != nil {
			t.Fatal(err)
		}
		if v, err := m.ReadWord(0x1ffe); err != nil || v != 0xaabbccdd {
			t.Fatalf("ReadWord = 0x%08x, %v", v, err)
		}
		if b, err := m.ReadBytes(0x1ffe, 4); err != nil || !slices.Equal(b, []byte{0xdd, 0xcc, 0xbb, 0xaa}) {
			t.Fatalf("ReadBytes = %x, %v", b, err)
		}
		if got := m.DrainDirty(); !slices.Equal(got, []uint32{0x1f00, 0x2000}) {
			t.Fatalf("DrainDirty = %x, want [1f00 2000]", got)
		}
	})
}
