package armv7m

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ticktock/internal/mpu"
)

// stackPerWord is exception-entry stacking as B1.5.6 states it, one MPU
// check per word, at the privilege of the interrupted mode. It is the
// reference pushStackedFrame's granule check must match: the same words
// written, the same MMFAR and DACCVIOL.
func stackPerWord(m *Machine) uint32 {
	priv := m.CPU.Privileged()
	sp := m.CPU.SP() - frameBytes
	f := [8]uint32{
		m.CPU.R[R0], m.CPU.R[R1], m.CPU.R[R2], m.CPU.R[R3],
		m.CPU.R[R12], m.CPU.LR, m.CPU.PC, m.CPU.PSR,
	}
	for i, w := range f {
		addr := sp + uint32(4*i)
		if !m.MPU.Allows(addr, mpu.AccessWrite, priv) {
			m.Fault = FaultStatus{Valid: true, MMFAR: addr, DACCVIOL: true}
			return sp
		}
		if err := m.Mem.WriteWord(addr, w); err != nil {
			return sp
		}
	}
	return sp
}

// stackingMachine builds a machine whose memory maps the pages the frame
// below sp touches, except the page holding word hole (hole >= 8 maps
// them all), with registers forced in raw, the CPU in Thread mode on PSP
// at the given privilege and a distinct value in every stacked register.
func stackingMachine(regs Snapshot, sp uint32, priv bool, hole uint8) *Machine {
	mem := NewMemory()
	frame := sp - frameBytes
	for i := uint32(0); i < 8; i++ {
		page := (frame + 4*i) &^ 0xFFF
		if mem.Segment(page) != nil || (hole < 8 && page == (frame+4*uint32(hole))&^0xFFF) {
			continue
		}
		if _, err := mem.Map(fmt.Sprintf("page%x", page), page, 0x1000); err != nil {
			panic(err)
		}
	}
	m := NewMachine(mem)
	m.MPU.Restore(regs)
	m.CPU.Mode = ModeThread
	m.CPU.Control = ControlSPSel
	if !priv {
		m.CPU.Control |= ControlNPriv
	}
	m.CPU.PSP = sp
	for i, r := range []GPR{R0, R1, R2, R3, R12} {
		m.CPU.R[r] = 0x1111_1111 * uint32(i+1)
	}
	m.CPU.LR, m.CPU.PC, m.CPU.PSR = 0x6666_6666, 0x7777_7776, 0x8888_8888
	return m
}

// stackingRegisters decodes fuzz bytes into a raw register file: six
// bytes per region, placed relative to the frame so its boundaries land
// near the stacked words. Any SIZE, AP and SRD can appear, enabled or
// not, with a base aligned to the size or not — states only FlipBits can
// reach included.
func stackingRegisters(ctrl uint8, frame uint32, b []byte) Snapshot {
	s := Snapshot{Ctrl: uint32(ctrl) & (CtrlEnable | CtrlPrivDefEna)}
	for i := 0; i < NumRegions && len(b) >= 6; i, b = i+1, b[6:] {
		size := uint32(b[0] & 31)
		rasr := size<<RASRSizeShift | uint32(b[1]&7)<<RASRAPShift | uint32(b[2])<<RASRSRDShift
		if b[0]&0x80 == 0 {
			rasr |= RASREnable
		}
		base := frame + uint32(int32(int16(binary.LittleEndian.Uint16(b[3:]))))*4
		if b[5]&1 != 0 {
			base &^= uint32(uint64(1)<<(size+1) - 1)
		}
		s.RBAR[i] = base&RBARAddrMask | uint32(i)
		s.RASR[i] = rasr
	}
	return s
}

// FuzzStackedFrameGranules compares exception-entry stacking, which asks
// the MPU once per 32-byte granule when every enabled region is at least
// 32 bytes, with the per-word reference over forced register states
// (SIZE < 4, MPU off, PRIVDEFENA, SRD), any word-aligned sp including
// frames that wrap the address space, both privileges and a partly
// unmapped stack.
func FuzzStackedFrameGranules(f *testing.F) {
	ram := func(size, ap, srd byte, off int16, aligned bool) []byte {
		b := []byte{size, ap, srd, 0, 0, 0}
		binary.LittleEndian.PutUint16(b[3:], uint16(off))
		if aligned {
			b[5] = 1
		}
		return b
	}
	on := uint8(CtrlEnable | CtrlPrivDefEna)
	// A 1 KiB region the frame straddles out of, at its top.
	f.Add(on, uint32(0x2000_0410), false, uint8(8), ram(9, APFullRW, 0, -4, true))
	// The frame's first word is denied, the rest would be admitted.
	f.Add(on, uint32(0x2000_0010), false, uint8(8), ram(9, APFullRW, 0, 4, true))
	// An 8-byte region (SIZE 2) ends inside a granule.
	f.Add(on, uint32(0x2000_0820), false, uint8(8), ram(2, APFullRW, 0, 0, true))
	// Subregions disabled under the frame; privileged with PRIVDEFENA.
	f.Add(on, uint32(0x2000_0120), true, uint8(8), ram(9, APPrivRO, 0x0A, -64, true))
	// MPU off, a frame that wraps the address space, a hole.
	f.Add(uint8(0), uint32(0x10), false, uint8(5), ram(4, APFullRW, 0, 0, false))
	f.Add(on, uint32(0), false, uint8(8), append(ram(31, APFullRW, 0, 0, true), ram(0, APNoAccess, 0, 2, false)...))
	f.Fuzz(func(t *testing.T, ctrl uint8, sp uint32, priv bool, hole uint8, regs []byte) {
		sp &^= 3
		snap := stackingRegisters(ctrl, sp-frameBytes, regs)
		got, want := stackingMachine(snap, sp, priv, hole), stackingMachine(snap, sp, priv, hole)
		gotSP, _ := got.pushStackedFrame()
		wantSP := stackPerWord(want)
		if gotSP != wantSP || got.Fault != want.Fault {
			t.Fatalf("sp=%#x priv=%v regs=%+v: sp %#x fault %+v, per-word sp %#x fault %+v",
				sp, priv, snap, gotSP, got.Fault, wantSP, want.Fault)
		}
		for i := uint32(0); i < 8; i++ {
			addr := wantSP + 4*i
			g, gErr := got.Mem.ReadWord(addr)
			w, wErr := want.Mem.ReadWord(addr)
			if g != w || (gErr == nil) != (wErr == nil) {
				t.Fatalf("sp=%#x priv=%v regs=%+v: word %d at %#x = %#x (%v), per-word %#x (%v)",
					sp, priv, snap, i, addr, g, gErr, w, wErr)
			}
		}
	})
}

// TestStackingFaultBothCores takes an SVC with the process stack pointer
// placed so that stacking hits the MPU, on the oracle and the fast core,
// and checks the derived MemManage (MSTKERR): the fault address, the
// words written before it, and that nothing after it was written.
func TestStackingFaultBothCores(t *testing.T) {
	// setupUser's RAM region is [0x2000_0000, 0x2000_0400), user RW; the
	// machine maps RAM from 0x2000_0000.
	cases := []struct {
		name    string
		psp     uint32
		flip    func(h *MPUHardware)
		mmfar   uint32
		written int
		perWord bool // the register file needs the per-word scan
	}{
		// The frame's first four words sit in the region's last granule;
		// the next granule is outside every region.
		{name: "straddle", psp: 0x2000_0410, mmfar: 0x2000_0400, written: 4},
		// The first word is below the region (and unmapped): nothing is
		// written, not even the four words the region would admit.
		{name: "first-word", psp: 0x2000_0010, mmfar: 0x1FFF_FFF0, written: 0},
		// An upset enables an 8-byte user RW region (SIZE 2) at
		// 0x2000_0800, outside the RAM region: its first two words are
		// admitted and the third, in the same granule, is not.
		{name: "flipped-size-2", psp: 0x2000_0820, mmfar: 0x2000_0808, written: 2, perWord: true,
			flip: func(h *MPUHardware) {
				h.FlipBits(3, 0x2000_0800, RASREnable|2<<RASRSizeShift|APFullRW<<RASRAPShift)
			}},
	}
	for _, tc := range cases {
		for _, fast := range []bool{false, true} {
			name := tc.name + "/oracle"
			if fast {
				name = tc.name + "/fast"
			}
			t.Run(name, func(t *testing.T) {
				m := testMachine(t)
				a := NewAssembler(0x100)
				a.Emit(SVC{Imm: 7})
				setupUser(m, a.MustAssemble())
				m.SetFastCore(fast)
				if tc.flip != nil {
					tc.flip(m.MPU)
				}
				if got := m.MPU.uniformGranules(); got == tc.perWord {
					t.Fatalf("uniformGranules = %v, want %v", got, !tc.perWord)
				}
				m.CPU.PSP = tc.psp
				// Every stacked register non-zero, so a written word shows.
				for i, r := range []GPR{R0, R1, R2, R3, R12} {
					m.CPU.R[r] = uint32(i + 1)
				}
				m.CPU.LR, m.CPU.PSR = 6, FlagC
				stop, err := m.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if stop.Reason != StopSyscall || stop.SVCNum != 7 {
					t.Fatalf("stop = %+v, want syscall 7", stop)
				}
				want := FaultStatus{Valid: true, MMFAR: tc.mmfar, DACCVIOL: true}
				if m.Fault != want {
					t.Fatalf("fault = %+v, want %+v", m.Fault, want)
				}
				frame := tc.psp - frameBytes
				if m.CPU.PSP != frame {
					t.Fatalf("psp = %#x, want %#x", m.CPU.PSP, frame)
				}
				for i := 0; i < 8; i++ {
					addr := frame + uint32(4*i)
					w, err := m.Mem.ReadWord(addr)
					if err != nil {
						continue // unmapped: nothing could be written
					}
					if written := w != 0; written != (i < tc.written) {
						t.Fatalf("word %d at %#x = %#x: written=%v, want %v", i, addr, w, written, i < tc.written)
					}
				}
			})
		}
	}
}
