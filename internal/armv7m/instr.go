package armv7m

import (
	"fmt"

	"ticktock/internal/mpu"
)

// Instr is a single decoded instruction. The emulator executes decoded
// instruction values rather than raw encodings: programs are assembled with
// the Assembler and occupy four bytes of flash per instruction, so the PC
// advances architecturally even though no bit-level decode happens.
type Instr interface {
	// Exec performs the instruction against the machine. Instructions
	// that write the PC (branches, exception returns) must call
	// Machine.writePC so the step loop does not advance the PC again.
	Exec(m *Machine) error
	// Cost returns the cycle cost charged for the instruction.
	Cost() uint64
	fmt.Stringer
}

// Cond is a branch condition evaluated against the PSR flags.
type Cond uint8

// Branch conditions.
const (
	AL Cond = iota // always
	EQ             // Z
	NE             // !Z
	LT             // N != V
	GT             // !Z && N == V
	LE             // Z || N != V
	GE             // N == V
)

// String implements fmt.Stringer.
func (c Cond) String() string {
	switch c {
	case AL:
		return ""
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case GT:
		return "gt"
	case LE:
		return "le"
	case GE:
		return "ge"
	default:
		return "??"
	}
}

// holds evaluates the condition against the CPU flags.
func (c Cond) holds(cpu *CPU) bool {
	n, z, v := cpu.Flag(FlagN), cpu.Flag(FlagZ), cpu.Flag(FlagV)
	switch c {
	case AL:
		return true
	case EQ:
		return z
	case NE:
		return !z
	case LT:
		return n != v
	case GT:
		return !z && n == v
	case LE:
		return z || n != v
	case GE:
		return n == v
	default:
		return false
	}
}

// SpecialReg names the system registers reachable via MSR/MRS.
type SpecialReg uint8

// Special registers.
const (
	SpecCONTROL SpecialReg = iota
	SpecPSP
	SpecMSP
	SpecIPSR
)

// String implements fmt.Stringer.
func (s SpecialReg) String() string {
	switch s {
	case SpecCONTROL:
		return "control"
	case SpecPSP:
		return "psp"
	case SpecMSP:
		return "msp"
	case SpecIPSR:
		return "ipsr"
	default:
		return "spec?"
	}
}

// --- data processing ---

// MovImm loads a 32-bit immediate (models a MOVW/MOVT pair when the value
// needs the top half, hence the 2-cycle cost).
type MovImm struct {
	Rd  GPR
	Imm uint32
}

func (i MovImm) Exec(m *Machine) error { m.CPU.R[i.Rd] = i.Imm; return nil }
func (i MovImm) Cost() uint64          { return 2 * CostALU }
func (i MovImm) String() string        { return fmt.Sprintf("mov r%d, #0x%x", i.Rd, i.Imm) }

// MovReg copies a register.
type MovReg struct{ Rd, Rm GPR }

func (i MovReg) Exec(m *Machine) error { m.CPU.R[i.Rd] = m.CPU.R[i.Rm]; return nil }
func (i MovReg) Cost() uint64          { return CostALU }
func (i MovReg) String() string        { return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rm) }

// binOp is shared plumbing for three-register ALU operations.
func binOp(m *Machine, rd, rn, rm GPR, f func(a, b uint32) uint32) {
	m.CPU.R[rd] = f(m.CPU.R[rn], m.CPU.R[rm])
}

// Add computes Rd = Rn + Rm.
type Add struct{ Rd, Rn, Rm GPR }

func (i Add) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a + b })
	return nil
}
func (i Add) Cost() uint64   { return CostALU }
func (i Add) String() string { return fmt.Sprintf("add r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// AddImm computes Rd = Rn + Imm.
type AddImm struct {
	Rd, Rn GPR
	Imm    uint32
}

func (i AddImm) Exec(m *Machine) error { m.CPU.R[i.Rd] = m.CPU.R[i.Rn] + i.Imm; return nil }
func (i AddImm) Cost() uint64          { return CostALU }
func (i AddImm) String() string        { return fmt.Sprintf("add r%d, r%d, #%d", i.Rd, i.Rn, i.Imm) }

// Sub computes Rd = Rn - Rm.
type Sub struct{ Rd, Rn, Rm GPR }

func (i Sub) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a - b })
	return nil
}
func (i Sub) Cost() uint64   { return CostALU }
func (i Sub) String() string { return fmt.Sprintf("sub r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// SubImm computes Rd = Rn - Imm.
type SubImm struct {
	Rd, Rn GPR
	Imm    uint32
}

func (i SubImm) Exec(m *Machine) error { m.CPU.R[i.Rd] = m.CPU.R[i.Rn] - i.Imm; return nil }
func (i SubImm) Cost() uint64          { return CostALU }
func (i SubImm) String() string        { return fmt.Sprintf("sub r%d, r%d, #%d", i.Rd, i.Rn, i.Imm) }

// Mul computes Rd = Rn * Rm.
type Mul struct{ Rd, Rn, Rm GPR }

func (i Mul) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a * b })
	return nil
}
func (i Mul) Cost() uint64   { return CostMul }
func (i Mul) String() string { return fmt.Sprintf("mul r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// Udiv computes Rd = Rn / Rm (unsigned; divide-by-zero yields 0, as the
// Cortex-M default configuration does).
type Udiv struct{ Rd, Rn, Rm GPR }

func (i Udiv) Exec(m *Machine) error {
	d := m.CPU.R[i.Rm]
	if d == 0 {
		m.CPU.R[i.Rd] = 0
		return nil
	}
	m.CPU.R[i.Rd] = m.CPU.R[i.Rn] / d
	return nil
}
func (i Udiv) Cost() uint64   { return CostDiv }
func (i Udiv) String() string { return fmt.Sprintf("udiv r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// And computes Rd = Rn & Rm.
type And struct{ Rd, Rn, Rm GPR }

func (i And) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a & b })
	return nil
}
func (i And) Cost() uint64   { return CostALU }
func (i And) String() string { return fmt.Sprintf("and r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// Orr computes Rd = Rn | Rm.
type Orr struct{ Rd, Rn, Rm GPR }

func (i Orr) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a | b })
	return nil
}
func (i Orr) Cost() uint64   { return CostALU }
func (i Orr) String() string { return fmt.Sprintf("orr r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// Eor computes Rd = Rn ^ Rm.
type Eor struct{ Rd, Rn, Rm GPR }

func (i Eor) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a ^ b })
	return nil
}
func (i Eor) Cost() uint64   { return CostALU }
func (i Eor) String() string { return fmt.Sprintf("eor r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// LslImm computes Rd = Rn << Shift.
type LslImm struct {
	Rd, Rn GPR
	Shift  uint8
}

func (i LslImm) Exec(m *Machine) error {
	m.CPU.R[i.Rd] = m.CPU.R[i.Rn] << (i.Shift & 31)
	return nil
}
func (i LslImm) Cost() uint64   { return CostALU }
func (i LslImm) String() string { return fmt.Sprintf("lsl r%d, r%d, #%d", i.Rd, i.Rn, i.Shift) }

// LsrImm computes Rd = Rn >> Shift (logical).
type LsrImm struct {
	Rd, Rn GPR
	Shift  uint8
}

func (i LsrImm) Exec(m *Machine) error {
	m.CPU.R[i.Rd] = m.CPU.R[i.Rn] >> (i.Shift & 31)
	return nil
}
func (i LsrImm) Cost() uint64   { return CostALU }
func (i LsrImm) String() string { return fmt.Sprintf("lsr r%d, r%d, #%d", i.Rd, i.Rn, i.Shift) }

// cmp updates flags from a - b, as CMP does.
func cmp(cpu *CPU, a, b uint32) {
	r := a - b
	carry := a >= b
	overflow := (a^b)&(a^r)&(1<<31) != 0
	cpu.SetFlags(r, carry, overflow)
}

// CmpReg compares two registers.
type CmpReg struct{ Rn, Rm GPR }

func (i CmpReg) Exec(m *Machine) error { cmp(&m.CPU, m.CPU.R[i.Rn], m.CPU.R[i.Rm]); return nil }
func (i CmpReg) Cost() uint64          { return CostALU }
func (i CmpReg) String() string        { return fmt.Sprintf("cmp r%d, r%d", i.Rn, i.Rm) }

// CmpImm compares a register with an immediate.
type CmpImm struct {
	Rn  GPR
	Imm uint32
}

func (i CmpImm) Exec(m *Machine) error { cmp(&m.CPU, m.CPU.R[i.Rn], i.Imm); return nil }
func (i CmpImm) Cost() uint64          { return CostALU }
func (i CmpImm) String() string        { return fmt.Sprintf("cmp r%d, #%d", i.Rn, i.Imm) }

// --- control flow ---

// B branches to an absolute address when Cond holds.
type B struct {
	Cond Cond
	Addr uint32
}

func (i B) Exec(m *Machine) error {
	if i.Cond.holds(&m.CPU) {
		m.writePC(i.Addr)
		return nil
	}
	return nil
}
func (i B) Cost() uint64   { return CostBranch }
func (i B) String() string { return fmt.Sprintf("b%s 0x%x", i.Cond, i.Addr) }

// BL branches-and-links to an absolute address.
type BL struct{ Addr uint32 }

func (i BL) Exec(m *Machine) error {
	m.CPU.LR = m.CPU.PC + 4
	m.writePC(i.Addr)
	return nil
}
func (i BL) Cost() uint64   { return CostCall }
func (i BL) String() string { return fmt.Sprintf("bl 0x%x", i.Addr) }

// BX branches to a register value; EXC_RETURN values trigger exception
// return.
type BX struct{ Rm GPR }

func (i BX) Exec(m *Machine) error {
	v := m.CPU.R[i.Rm]
	if IsExcReturn(v) {
		return m.exceptionReturn(v)
	}
	m.writePC(v &^ 1)
	return nil
}
func (i BX) Cost() uint64   { return CostBranch }
func (i BX) String() string { return fmt.Sprintf("bx r%d", i.Rm) }

// BXLR branches to LR (function return or exception return).
type BXLR struct{}

func (i BXLR) Exec(m *Machine) error {
	v := m.CPU.LR
	if IsExcReturn(v) {
		return m.exceptionReturn(v)
	}
	m.writePC(v &^ 1)
	return nil
}
func (i BXLR) Cost() uint64   { return CostBranch }
func (i BXLR) String() string { return "bx lr" }

// --- memory ---

// Ldr loads a word: Rt = [Rn + Imm].
type Ldr struct {
	Rt, Rn GPR
	Imm    uint32
}

func (i Ldr) Exec(m *Machine) error {
	v, err := m.loadWord(m.CPU.R[i.Rn] + i.Imm)
	if err != nil {
		return err
	}
	m.CPU.R[i.Rt] = v
	return nil
}
func (i Ldr) Cost() uint64   { return CostLoad }
func (i Ldr) String() string { return fmt.Sprintf("ldr r%d, [r%d, #%d]", i.Rt, i.Rn, i.Imm) }

// Str stores a word: [Rn + Imm] = Rt.
type Str struct {
	Rt, Rn GPR
	Imm    uint32
}

func (i Str) Exec(m *Machine) error {
	return m.storeWord(m.CPU.R[i.Rn]+i.Imm, m.CPU.R[i.Rt])
}
func (i Str) Cost() uint64   { return CostStore }
func (i Str) String() string { return fmt.Sprintf("str r%d, [r%d, #%d]", i.Rt, i.Rn, i.Imm) }

// Ldrb loads a byte, zero-extended.
type Ldrb struct {
	Rt, Rn GPR
	Imm    uint32
}

func (i Ldrb) Exec(m *Machine) error {
	b, err := m.loadByte(m.CPU.R[i.Rn] + i.Imm)
	if err != nil {
		return err
	}
	m.CPU.R[i.Rt] = uint32(b)
	return nil
}
func (i Ldrb) Cost() uint64   { return CostLoad }
func (i Ldrb) String() string { return fmt.Sprintf("ldrb r%d, [r%d, #%d]", i.Rt, i.Rn, i.Imm) }

// Strb stores the low byte of Rt.
type Strb struct {
	Rt, Rn GPR
	Imm    uint32
}

func (i Strb) Exec(m *Machine) error {
	addr := m.CPU.R[i.Rn] + i.Imm
	if err := m.checkAccess(addr, mpu.AccessWrite); err != nil {
		return err
	}
	return m.Mem.StoreByte(addr, byte(m.CPU.R[i.Rt]))
}
func (i Strb) Cost() uint64   { return CostStore }
func (i Strb) String() string { return fmt.Sprintf("strb r%d, [r%d, #%d]", i.Rt, i.Rn, i.Imm) }

// Push stores registers on the active stack (descending, lowest register
// at lowest address).
type Push struct{ Regs []GPR }

func (i Push) Exec(m *Machine) error {
	sp := m.CPU.SP() - uint32(4*len(i.Regs))
	for idx, r := range i.Regs {
		if err := m.storeWord(sp+uint32(4*idx), m.CPU.R[r]); err != nil {
			return err
		}
	}
	m.CPU.SetSP(sp)
	return nil
}
func (i Push) Cost() uint64   { return uint64(len(i.Regs)) * CostStore }
func (i Push) String() string { return fmt.Sprintf("push %v", i.Regs) }

// Pop loads registers from the active stack.
type Pop struct{ Regs []GPR }

func (i Pop) Exec(m *Machine) error {
	sp := m.CPU.SP()
	for idx, r := range i.Regs {
		v, err := m.loadWord(sp + uint32(4*idx))
		if err != nil {
			return err
		}
		m.CPU.R[r] = v
	}
	m.CPU.SetSP(sp + uint32(4*len(i.Regs)))
	return nil
}
func (i Pop) Cost() uint64   { return uint64(len(i.Regs)) * CostLoad }
func (i Pop) String() string { return fmt.Sprintf("pop %v", i.Regs) }

// --- system ---

// SVC requests a supervisor call; it raises the SVCall exception.
type SVC struct{ Imm uint8 }

func (i SVC) Exec(m *Machine) error { return &svcTrap{imm: i.Imm} }
func (i SVC) Cost() uint64          { return CostALU }
func (i SVC) String() string        { return fmt.Sprintf("svc #%d", i.Imm) }

// MSR moves a general register to a special register. Unprivileged writes
// to CONTROL, MSP and PSP are ignored (not faults), per B5-731.
type MSR struct {
	Spec SpecialReg
	Rn   GPR
}

func (i MSR) Exec(m *Machine) error {
	if !m.CPU.Privileged() {
		return nil // silently ignored, as on hardware
	}
	v := m.CPU.R[i.Rn]
	switch i.Spec {
	case SpecCONTROL:
		m.CPU.Control = v & (ControlNPriv | ControlSPSel)
	case SpecPSP:
		m.CPU.PSP = v &^ 3
	case SpecMSP:
		m.CPU.MSP = v &^ 3
	case SpecIPSR:
		// IPSR is read-only; write ignored.
	}
	return nil
}
func (i MSR) Cost() uint64   { return CostMSR }
func (i MSR) String() string { return fmt.Sprintf("msr %s, r%d", i.Spec, i.Rn) }

// MRS moves a special register to a general register.
type MRS struct {
	Rd   GPR
	Spec SpecialReg
}

func (i MRS) Exec(m *Machine) error {
	var v uint32
	switch i.Spec {
	case SpecCONTROL:
		v = m.CPU.Control
	case SpecPSP:
		v = m.CPU.PSP
	case SpecMSP:
		v = m.CPU.MSP
	case SpecIPSR:
		v = m.CPU.ExceptionNumber()
	}
	m.CPU.R[i.Rd] = v
	return nil
}
func (i MRS) Cost() uint64   { return CostMSR }
func (i MRS) String() string { return fmt.Sprintf("mrs r%d, %s", i.Rd, i.Spec) }

// ISB is an instruction synchronization barrier. Architecturally required
// after CONTROL writes; the emulator charges its cost.
type ISB struct{}

func (i ISB) Exec(m *Machine) error { return nil }
func (i ISB) Cost() uint64          { return CostBarrier }
func (i ISB) String() string        { return "isb" }

// NOP does nothing.
type NOP struct{}

func (i NOP) Exec(m *Machine) error { return nil }
func (i NOP) Cost() uint64          { return CostALU }
func (i NOP) String() string        { return "nop" }

// UDF is a permanently-undefined instruction; it escalates to HardFault.
type UDF struct{}

func (i UDF) Exec(m *Machine) error { return &udfTrap{} }
func (i UDF) Cost() uint64          { return CostALU }
func (i UDF) String() string        { return "udf" }

// WFI waits for interrupt; the emulator treats it as a hint that the
// program is idle and stops the run loop.
type WFI struct{}

func (i WFI) Exec(m *Machine) error { return &wfiTrap{} }
func (i WFI) Cost() uint64          { return CostALU }
func (i WFI) String() string        { return "wfi" }

// LdrReg loads a word with register offset: Rt = [Rn + Rm].
type LdrReg struct{ Rt, Rn, Rm GPR }

func (i LdrReg) Exec(m *Machine) error {
	v, err := m.loadWord(m.CPU.R[i.Rn] + m.CPU.R[i.Rm])
	if err != nil {
		return err
	}
	m.CPU.R[i.Rt] = v
	return nil
}
func (i LdrReg) Cost() uint64   { return CostLoad }
func (i LdrReg) String() string { return fmt.Sprintf("ldr r%d, [r%d, r%d]", i.Rt, i.Rn, i.Rm) }

// StrReg stores a word with register offset: [Rn + Rm] = Rt.
type StrReg struct{ Rt, Rn, Rm GPR }

func (i StrReg) Exec(m *Machine) error {
	return m.storeWord(m.CPU.R[i.Rn]+m.CPU.R[i.Rm], m.CPU.R[i.Rt])
}
func (i StrReg) Cost() uint64   { return CostStore }
func (i StrReg) String() string { return fmt.Sprintf("str r%d, [r%d, r%d]", i.Rt, i.Rn, i.Rm) }

// Bic computes Rd = Rn &^ Rm (bit clear).
type Bic struct{ Rd, Rn, Rm GPR }

func (i Bic) Exec(m *Machine) error {
	binOp(m, i.Rd, i.Rn, i.Rm, func(a, b uint32) uint32 { return a &^ b })
	return nil
}
func (i Bic) Cost() uint64   { return CostALU }
func (i Bic) String() string { return fmt.Sprintf("bic r%d, r%d, r%d", i.Rd, i.Rn, i.Rm) }

// Mvn computes Rd = ^Rm.
type Mvn struct{ Rd, Rm GPR }

func (i Mvn) Exec(m *Machine) error { m.CPU.R[i.Rd] = ^m.CPU.R[i.Rm]; return nil }
func (i Mvn) Cost() uint64          { return CostALU }
func (i Mvn) String() string        { return fmt.Sprintf("mvn r%d, r%d", i.Rd, i.Rm) }

// RsbImm computes Rd = Imm - Rn (reverse subtract).
type RsbImm struct {
	Rd, Rn GPR
	Imm    uint32
}

func (i RsbImm) Exec(m *Machine) error { m.CPU.R[i.Rd] = i.Imm - m.CPU.R[i.Rn]; return nil }
func (i RsbImm) Cost() uint64          { return CostALU }
func (i RsbImm) String() string        { return fmt.Sprintf("rsb r%d, r%d, #%d", i.Rd, i.Rn, i.Imm) }

// SubsImm computes Rd = Rn - Imm and sets the condition flags, fusing the
// common sub+cmp loop idiom.
type SubsImm struct {
	Rd, Rn GPR
	Imm    uint32
}

func (i SubsImm) Exec(m *Machine) error {
	a := m.CPU.R[i.Rn]
	r := a - i.Imm
	m.CPU.R[i.Rd] = r
	carry := a >= i.Imm
	overflow := (a^i.Imm)&(a^r)&(1<<31) != 0
	m.CPU.SetFlags(r, carry, overflow)
	return nil
}
func (i SubsImm) Cost() uint64   { return CostALU }
func (i SubsImm) String() string { return fmt.Sprintf("subs r%d, r%d, #%d", i.Rd, i.Rn, i.Imm) }
