package rv32

import (
	"fmt"

	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
)

// Instr is a decoded RV32 instruction.
type Instr interface {
	Exec(m *Machine) error
	Cost() uint64
	fmt.Stringer
}

// trap errors signalled from Exec to the step loop. ecallTrap and wfiTrap
// are zero-size values, so raising one allocates nothing.
type ecallTrap struct{}

func (ecallTrap) Error() string { return "ecall" }

type wfiTrap struct{}

func (wfiTrap) Error() string { return "wfi" }

type illegalTrap struct{ what string }

func (t *illegalTrap) Error() string { return "illegal instruction: " + t.what }

type accessFault struct {
	cause uint32
	addr  uint32
	inner error
}

func (t *accessFault) Error() string { return t.inner.Error() }

// --- immediate / register ALU ---

// Li loads a 32-bit immediate (models the lui+addi pair).
type Li struct {
	Rd  Reg
	Imm uint32
}

func (i Li) Exec(m *Machine) error { m.setReg(i.Rd, i.Imm); return nil }
func (i Li) Cost() uint64          { return 2 * cycles.ALU }
func (i Li) String() string        { return fmt.Sprintf("li x%d, 0x%x", i.Rd, i.Imm) }

// Addi adds a sign-extended immediate.
type Addi struct {
	Rd, Rs1 Reg
	Imm     int32
}

func (i Addi) Exec(m *Machine) error {
	m.setReg(i.Rd, m.reg(i.Rs1)+uint32(i.Imm))
	return nil
}
func (i Addi) Cost() uint64   { return cycles.ALU }
func (i Addi) String() string { return fmt.Sprintf("addi x%d, x%d, %d", i.Rd, i.Rs1, i.Imm) }

// rOp is shared plumbing for R-type ALU operations.
func rOp(m *Machine, rd, rs1, rs2 Reg, f func(a, b uint32) uint32) {
	m.setReg(rd, f(m.reg(rs1), m.reg(rs2)))
}

// Add computes rd = rs1 + rs2.
type Add struct{ Rd, Rs1, Rs2 Reg }

func (i Add) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a + b })
	return nil
}
func (i Add) Cost() uint64   { return cycles.ALU }
func (i Add) String() string { return fmt.Sprintf("add x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// Sub computes rd = rs1 - rs2.
type Sub struct{ Rd, Rs1, Rs2 Reg }

func (i Sub) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a - b })
	return nil
}
func (i Sub) Cost() uint64   { return cycles.ALU }
func (i Sub) String() string { return fmt.Sprintf("sub x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// And computes rd = rs1 & rs2.
type And struct{ Rd, Rs1, Rs2 Reg }

func (i And) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a & b })
	return nil
}
func (i And) Cost() uint64   { return cycles.ALU }
func (i And) String() string { return fmt.Sprintf("and x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// Or computes rd = rs1 | rs2.
type Or struct{ Rd, Rs1, Rs2 Reg }

func (i Or) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a | b })
	return nil
}
func (i Or) Cost() uint64   { return cycles.ALU }
func (i Or) String() string { return fmt.Sprintf("or x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// Xor computes rd = rs1 ^ rs2.
type Xor struct{ Rd, Rs1, Rs2 Reg }

func (i Xor) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a ^ b })
	return nil
}
func (i Xor) Cost() uint64   { return cycles.ALU }
func (i Xor) String() string { return fmt.Sprintf("xor x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// Slli shifts left by an immediate.
type Slli struct {
	Rd, Rs1 Reg
	Shamt   uint8
}

func (i Slli) Exec(m *Machine) error {
	m.setReg(i.Rd, m.reg(i.Rs1)<<(i.Shamt&31))
	return nil
}
func (i Slli) Cost() uint64   { return cycles.ALU }
func (i Slli) String() string { return fmt.Sprintf("slli x%d, x%d, %d", i.Rd, i.Rs1, i.Shamt) }

// Srli shifts right (logical) by an immediate.
type Srli struct {
	Rd, Rs1 Reg
	Shamt   uint8
}

func (i Srli) Exec(m *Machine) error {
	m.setReg(i.Rd, m.reg(i.Rs1)>>(i.Shamt&31))
	return nil
}
func (i Srli) Cost() uint64   { return cycles.ALU }
func (i Srli) String() string { return fmt.Sprintf("srli x%d, x%d, %d", i.Rd, i.Rs1, i.Shamt) }

// Mul computes rd = rs1 * rs2 (M extension).
type Mul struct{ Rd, Rs1, Rs2 Reg }

func (i Mul) Exec(m *Machine) error {
	rOp(m, i.Rd, i.Rs1, i.Rs2, func(a, b uint32) uint32 { return a * b })
	return nil
}
func (i Mul) Cost() uint64   { return cycles.Mul }
func (i Mul) String() string { return fmt.Sprintf("mul x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// Divu computes rd = rs1 / rs2 (unsigned; division by zero yields all
// ones, per the spec).
type Divu struct{ Rd, Rs1, Rs2 Reg }

func (i Divu) Exec(m *Machine) error {
	b := m.reg(i.Rs2)
	if b == 0 {
		m.setReg(i.Rd, 0xFFFF_FFFF)
		return nil
	}
	m.setReg(i.Rd, m.reg(i.Rs1)/b)
	return nil
}
func (i Divu) Cost() uint64   { return cycles.Div }
func (i Divu) String() string { return fmt.Sprintf("divu x%d, x%d, x%d", i.Rd, i.Rs1, i.Rs2) }

// --- memory ---

// loadFault wraps a load-path error as an access fault.
func loadFault(addr uint32, err error) error {
	return &accessFault{cause: CauseLoadAccessFault, addr: addr, inner: err}
}

// loadGate runs the PMP check and the injected load-fault hook; the
// memory read itself lives in the width-specific callers so each stays
// a straight-line candidate for inlining.
func loadGate(m *Machine, addr uint32) error {
	if err := m.check(addr, mpu.AccessRead); err != nil {
		return loadFault(addr, err)
	}
	if m.LoadFault != nil {
		if err := m.LoadFault(addr); err != nil {
			return loadFault(addr, err)
		}
	}
	return nil
}

// loadWordChecked performs a PMP-checked word load.
func loadWordChecked(m *Machine, addr uint32) (uint32, error) {
	if err := loadGate(m, addr); err != nil {
		return 0, err
	}
	v, err := m.Mem.ReadWord(addr)
	if err != nil {
		return 0, loadFault(addr, err)
	}
	return v, nil
}

// loadByteChecked performs a PMP-checked byte load.
func loadByteChecked(m *Machine, addr uint32) (uint32, error) {
	if err := loadGate(m, addr); err != nil {
		return 0, err
	}
	b, err := m.Mem.LoadByte(addr)
	if err != nil {
		return 0, loadFault(addr, err)
	}
	return uint32(b), nil
}

// storeFault wraps a store-path error as an access fault.
func storeFault(addr uint32, err error) error {
	return &accessFault{cause: CauseStoreAccessFault, addr: addr, inner: err}
}

// storeWordChecked performs a PMP-checked word store.
func storeWordChecked(m *Machine, addr uint32, v uint32) error {
	if err := m.check(addr, mpu.AccessWrite); err != nil {
		return storeFault(addr, err)
	}
	if err := m.Mem.WriteWord(addr, v); err != nil {
		return storeFault(addr, err)
	}
	return nil
}

// storeByteChecked performs a PMP-checked byte store.
func storeByteChecked(m *Machine, addr uint32, v uint32) error {
	if err := m.check(addr, mpu.AccessWrite); err != nil {
		return storeFault(addr, err)
	}
	if err := m.Mem.StoreByte(addr, byte(v)); err != nil {
		return storeFault(addr, err)
	}
	return nil
}

// Lw loads a word: rd = [rs1 + off].
type Lw struct {
	Rd, Rs1 Reg
	Off     int32
}

func (i Lw) Exec(m *Machine) error {
	v, err := loadWordChecked(m, m.reg(i.Rs1)+uint32(i.Off))
	if err != nil {
		return err
	}
	m.setReg(i.Rd, v)
	return nil
}
func (i Lw) Cost() uint64   { return cycles.Load }
func (i Lw) String() string { return fmt.Sprintf("lw x%d, %d(x%d)", i.Rd, i.Off, i.Rs1) }

// Sw stores a word: [rs1 + off] = rs2.
type Sw struct {
	Rs2, Rs1 Reg
	Off      int32
}

func (i Sw) Exec(m *Machine) error {
	return storeWordChecked(m, m.reg(i.Rs1)+uint32(i.Off), m.reg(i.Rs2))
}
func (i Sw) Cost() uint64   { return cycles.Store }
func (i Sw) String() string { return fmt.Sprintf("sw x%d, %d(x%d)", i.Rs2, i.Off, i.Rs1) }

// Lbu loads a byte zero-extended.
type Lbu struct {
	Rd, Rs1 Reg
	Off     int32
}

func (i Lbu) Exec(m *Machine) error {
	v, err := loadByteChecked(m, m.reg(i.Rs1)+uint32(i.Off))
	if err != nil {
		return err
	}
	m.setReg(i.Rd, v)
	return nil
}
func (i Lbu) Cost() uint64   { return cycles.Load }
func (i Lbu) String() string { return fmt.Sprintf("lbu x%d, %d(x%d)", i.Rd, i.Off, i.Rs1) }

// Sb stores the low byte of rs2.
type Sb struct {
	Rs2, Rs1 Reg
	Off      int32
}

func (i Sb) Exec(m *Machine) error {
	return storeByteChecked(m, m.reg(i.Rs1)+uint32(i.Off), m.reg(i.Rs2))
}
func (i Sb) Cost() uint64   { return cycles.Store }
func (i Sb) String() string { return fmt.Sprintf("sb x%d, %d(x%d)", i.Rs2, i.Off, i.Rs1) }

// --- control flow (absolute targets, resolved by the assembler) ---

// BCond is the branch condition for B.
type BCond uint8

// Branch conditions.
const (
	BEQ BCond = iota
	BNE
	BLT // signed
	BGE // signed
	BLTU
	BGEU
)

// String implements fmt.Stringer.
func (c BCond) String() string {
	return [...]string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}[c]
}

// holds evaluates the condition.
func (c BCond) holds(a, b uint32) bool {
	switch c {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return int32(a) < int32(b)
	case BGE:
		return int32(a) >= int32(b)
	case BLTU:
		return a < b
	case BGEU:
		return a >= b
	default:
		return false
	}
}

// B is a conditional branch.
type B struct {
	Cond     BCond
	Rs1, Rs2 Reg
	Addr     uint32
}

func (i B) Exec(m *Machine) error {
	if i.Cond.holds(m.reg(i.Rs1), m.reg(i.Rs2)) {
		m.writePC(i.Addr)
	}
	return nil
}
func (i B) Cost() uint64   { return cycles.Branch }
func (i B) String() string { return fmt.Sprintf("%s x%d, x%d, 0x%x", i.Cond, i.Rs1, i.Rs2, i.Addr) }

// Jal jumps and links.
type Jal struct {
	Rd   Reg
	Addr uint32
}

func (i Jal) Exec(m *Machine) error {
	m.setReg(i.Rd, m.PC+4)
	m.writePC(i.Addr)
	return nil
}
func (i Jal) Cost() uint64   { return cycles.Call }
func (i Jal) String() string { return fmt.Sprintf("jal x%d, 0x%x", i.Rd, i.Addr) }

// Jalr jumps to rs1+off and links.
type Jalr struct {
	Rd, Rs1 Reg
	Off     int32
}

func (i Jalr) Exec(m *Machine) error {
	target := (m.reg(i.Rs1) + uint32(i.Off)) &^ 1
	m.setReg(i.Rd, m.PC+4)
	m.writePC(target)
	return nil
}
func (i Jalr) Cost() uint64   { return cycles.Branch }
func (i Jalr) String() string { return fmt.Sprintf("jalr x%d, %d(x%d)", i.Rd, i.Off, i.Rs1) }

// --- system ---

// Ecall raises an environment call into the kernel.
type Ecall struct{}

func (Ecall) Exec(m *Machine) error { return ecallTrap{} }
func (Ecall) Cost() uint64          { return cycles.ALU }
func (Ecall) String() string        { return "ecall" }

// Wfi hints the hart is idle; the run loop stops.
type Wfi struct{}

func (Wfi) Exec(m *Machine) error { return wfiTrap{} }
func (Wfi) Cost() uint64          { return cycles.ALU }
func (Wfi) String() string        { return "wfi" }

// Unimp is an illegal instruction.
type Unimp struct{}

func (Unimp) Exec(m *Machine) error { return &illegalTrap{what: "unimp"} }
func (Unimp) Cost() uint64          { return cycles.ALU }
func (Unimp) String() string        { return "unimp" }

// CsrAccess models a CSR instruction: from user mode it traps as illegal
// (no CSRs are U-accessible on these chips), which is exactly the
// privilege property the kernel relies on.
type CsrAccess struct{ CSR uint16 }

func (i CsrAccess) Exec(m *Machine) error {
	if m.Priv != PrivMachine {
		return &illegalTrap{what: fmt.Sprintf("csr 0x%x from user mode", i.CSR)}
	}
	// Machine-mode CSR access from modelled code is not needed; the
	// kernel manipulates CSR state natively.
	return nil
}
func (i CsrAccess) Cost() uint64   { return cycles.MSR }
func (i CsrAccess) String() string { return fmt.Sprintf("csrr 0x%x", i.CSR) }
