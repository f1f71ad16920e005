// Package physmem models the physical address space of a microcontroller
// as a sorted set of non-overlapping segments (flash, RAM, peripherals).
// Segments are backed sparsely: storage comes in fixed-size pages that
// are allocated on a page's first write, and a read of a page never
// written returns zeros, so mapping a 1 MiB flash costs a page table,
// not a megabyte. All accesses are little-endian. Both the ARMv7-M
// machine model (internal/armv7m) and the RV32 machine model
// (internal/rv32) execute against this memory; protection (MPU/PMP) is
// layered on top by each architecture.
package physmem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Storage pages. Page boundaries are aligned to pageSize in the address
// space, whatever a segment's base, so each page holds whole
// DirtyPageSize pages and an address's page offset is its low bits.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Segment is a contiguous range of backed physical memory.
type Segment struct {
	Name string
	Base uint32

	// end is the first address past the segment, widened so a segment
	// that reaches the top of the address space does not wrap to 0.
	end uint64

	// pages[i] stores the page numbered first+i; nil until that page is
	// first written, and read as zeros until then.
	first uint32
	pages []*page
}

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint32) bool {
	return addr >= s.Base && uint64(addr) < s.end
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return uint32(s.end) }

// read copies [addr, addr+len(dst)) into dst a page at a time. The span
// must lie inside the segment.
func (s *Segment) read(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := min(len(dst), pageSize-int(off))
		if p := s.pages[addr>>pageShift-s.first]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// write stores src at [addr, addr+len(src)) a page at a time, allocating
// each page it touches that has none yet. The span must lie inside the
// segment.
func (s *Segment) write(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := copy(s.writable(addr)[off:], src)
		src = src[n:]
		addr += uint32(n)
	}
}

// zero clears [addr, addr+n) in the pages that hold storage; a page
// never written already reads as zeros and stays unallocated. The span
// must lie inside the segment.
func (s *Segment) zero(addr, n uint32) {
	for n > 0 {
		off := addr & pageMask
		k := min(n, pageSize-off)
		if p := s.pages[addr>>pageShift-s.first]; p != nil {
			clear(p[off : off+k])
		}
		addr += k
		n -= k
	}
}

// writable returns the page holding addr, allocating it on first write.
func (s *Segment) writable(addr uint32) *page {
	i := addr>>pageShift - s.first
	p := s.pages[i]
	if p == nil {
		p = new(page)
		s.pages[i] = p
	}
	return p
}

// BusError reports an access to unmapped physical memory.
type BusError struct {
	Addr uint32
}

// Error implements the error interface.
func (e *BusError) Error() string {
	return fmt.Sprintf("armv7m: bus fault: no memory mapped at 0x%08x", e.Addr)
}

// DirtyPageSize is the granularity of write tracking (TrackDirty): page
// bases are aligned down to this power-of-two size.
const DirtyPageSize = 256

// Memory models the physical address space of the microcontroller as a
// sorted set of non-overlapping segments (flash, RAM, peripherals).
// All accesses are little-endian, matching ARMv7-M.
type Memory struct {
	segs []*Segment

	// last is the most recently hit segment. Accesses are overwhelmingly
	// local (the active RAM window, the current code page), so checking
	// it first turns the common case into two compares instead of a
	// binary search. Purely a cache: Segment falls back to the search on
	// a miss, and Map never removes segments, so it can never go stale.
	last *Segment

	// dirty, when non-nil, collects the page bases written since the
	// last DrainDirty — the flight recorder's copy-on-write signal. The
	// write paths pay one nil check when tracking is off; tracking never
	// touches a cycle meter either way.
	dirty map[uint32]struct{}
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// Map adds a segment of size bytes that reads as zeros until written. It
// returns an error if the new segment overlaps an existing one or wraps
// the address space.
func (m *Memory) Map(name string, base uint32, size uint32) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("armv7m: segment %q has zero size", name)
	}
	end := uint64(base) + uint64(size)
	if end > 1<<32 {
		return nil, fmt.Errorf("armv7m: segment %q wraps the 32-bit address space", name)
	}
	for _, s := range m.segs {
		if uint64(base) < s.end && uint64(s.Base) < end {
			return nil, fmt.Errorf("armv7m: segment %q overlaps %q", name, s.Name)
		}
	}
	first := base >> pageShift
	last := uint32((end - 1) >> pageShift)
	seg := &Segment{Name: name, Base: base, end: end, first: first, pages: make([]*page, last-first+1)}
	m.segs = append(m.segs, seg)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	return seg, nil
}

// Segment returns the segment containing addr, or nil.
func (m *Memory) Segment(addr uint32) *Segment {
	if s := m.last; s != nil && addr >= s.Base && uint64(addr) < s.end {
		return s
	}
	// Binary search over sorted segment bases.
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].end > uint64(addr) })
	if i < len(m.segs) && m.segs[i].Contains(addr) {
		m.last = m.segs[i]
		return m.segs[i]
	}
	return nil
}

// Segments returns all mapped segments in address order.
func (m *Memory) Segments() []*Segment { return m.segs }

// TrackDirty enables write tracking at DirtyPageSize granularity. Every
// page that already holds a non-zero byte is marked dirty immediately,
// so a tracker attached after some setup writes still sees a complete
// picture: untracked pages are guaranteed to be all-zero. Only allocated
// storage is scanned; a page never written holds no non-zero byte.
func (m *Memory) TrackDirty() {
	m.dirty = make(map[uint32]struct{})
	for _, s := range m.segs {
		for i, p := range s.pages {
			if p == nil {
				continue
			}
			base := (s.first + uint32(i)) << pageShift
			for off := 0; off < pageSize; off += DirtyPageSize {
				if [DirtyPageSize]byte(p[off:off+DirtyPageSize]) != [DirtyPageSize]byte{} {
					m.dirty[base+uint32(off)] = struct{}{}
				}
			}
		}
	}
}

// DrainDirty returns the sorted page bases written since the last drain
// (or since TrackDirty) and clears the set. Nil when tracking is off.
func (m *Memory) DrainDirty() []uint32 {
	if m.dirty == nil || len(m.dirty) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(m.dirty))
	for base := range m.dirty {
		out = append(out, base)
	}
	clear(m.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// markDirty records the pages overlapping [addr, addr+n).
func (m *Memory) markDirty(addr, n uint32) {
	first := addr &^ uint32(DirtyPageSize-1)
	last := (addr + n - 1) &^ uint32(DirtyPageSize-1)
	for p := first; ; p += DirtyPageSize {
		m.dirty[p] = struct{}{}
		if p == last {
			break
		}
	}
}

// lastHit returns the last-hit segment if it backs all of [addr,
// addr+n), else nil. It is small enough to inline, so the common case of
// every access costs two compares and no call; a miss goes to
// checkSpan.
func (m *Memory) lastHit(addr uint32, n uint32) *Segment {
	if s := m.last; s != nil && addr >= s.Base && uint64(addr)+uint64(n) <= s.end {
		return s
	}
	return nil
}

// checkSpan verifies [addr, addr+n) is fully backed by one segment.
func (m *Memory) checkSpan(addr uint32, n uint32) (*Segment, error) {
	seg := m.Segment(addr)
	if seg == nil || uint64(addr)+uint64(n) > seg.end {
		return nil, &BusError{Addr: addr}
	}
	return seg, nil
}

// LoadByte loads one byte.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	seg := m.lastHit(addr, 1)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, 1); err != nil {
			return 0, err
		}
	}
	if p := seg.pages[addr>>pageShift-seg.first]; p != nil {
		return p[addr&pageMask], nil
	}
	return 0, nil
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	seg := m.lastHit(addr, 1)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, 1); err != nil {
			return err
		}
	}
	seg.writable(addr)[addr&pageMask] = v
	if m.dirty != nil {
		m.markDirty(addr, 1)
	}
	return nil
}

// ReadWord loads a little-endian 32-bit word. A word that straddles two
// pages takes the byte-wise path.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	seg := m.lastHit(addr, 4)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, 4); err != nil {
			return 0, err
		}
	}
	if off := addr & pageMask; off <= pageSize-4 {
		if p := seg.pages[addr>>pageShift-seg.first]; p != nil {
			return binary.LittleEndian.Uint32(p[off:]), nil
		}
		return 0, nil
	}
	var b [4]byte
	seg.read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteWord stores a little-endian 32-bit word.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	seg := m.lastHit(addr, 4)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, 4); err != nil {
			return err
		}
	}
	if off := addr & pageMask; off <= pageSize-4 {
		binary.LittleEndian.PutUint32(seg.writable(addr)[off:], v)
	} else {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		seg.write(addr, b[:])
	}
	if m.dirty != nil {
		m.markDirty(addr, 4)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint32, n uint32) ([]byte, error) {
	seg := m.lastHit(addr, n)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, n); err != nil {
			return nil, err
		}
	}
	out := make([]byte, n)
	seg.read(addr, out)
	return out, nil
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	seg := m.lastHit(addr, uint32(len(b)))
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, uint32(len(b))); err != nil {
			return err
		}
	}
	seg.write(addr, b)
	if m.dirty != nil && len(b) > 0 {
		m.markDirty(addr, uint32(len(b)))
	}
	return nil
}

// Zero stores n zero bytes starting at addr: the effect, the bus error
// and the dirty pages of WriteBytes with a zeroed slice, without the
// slice and without allocating a page that was never written.
func (m *Memory) Zero(addr, n uint32) error {
	seg := m.lastHit(addr, n)
	if seg == nil {
		var err error
		if seg, err = m.checkSpan(addr, n); err != nil {
			return err
		}
	}
	seg.zero(addr, n)
	if m.dirty != nil && n > 0 {
		m.markDirty(addr, n)
	}
	return nil
}
