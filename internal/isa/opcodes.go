package isa

// Opcode identifies an operation.
type Opcode uint8

// Class groups opcodes by the functional-unit family that executes them and
// by their pipeline bookkeeping requirements.
type Class uint8

// Functional classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional + unconditional direct control
	ClassJump   // indirect control
	ClassMG     // mini-graph handle (execution class resolved via the MGT)
	ClassHalt
)

// String returns a short class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "ialu"
	case ClassIntMul:
		return "imul"
	case ClassFPALU:
		return "falu"
	case ClassFPMul:
		return "fmul"
	case ClassFPDiv:
		return "fdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "br"
	case ClassJump:
		return "jmp"
	case ClassMG:
		return "mg"
	case ClassHalt:
		return "halt"
	}
	return "?"
}

// Fmt is the instruction encoding format, which fixes operand roles.
type Fmt uint8

// Instruction formats.
const (
	FmtNone Fmt = iota
	FmtOperate
	FmtMem
	FmtLda // memory-format address arithmetic (no memory access)
	FmtBranch
	FmtJump
	FmtMG
)

// Opcodes. Mnemonics follow the Alpha AXP instruction set where an Alpha
// equivalent exists.
const (
	OpNop Opcode = iota
	OpHalt

	// Integer arithmetic (operate format).
	OpAddl // 32-bit add, sign-extended
	OpAddq // 64-bit add
	OpSubl
	OpSubq
	OpMull // 32-bit multiply (ClassIntMul)
	OpMulq
	OpS4Addl // scaled adds: Rc = 4*Ra + Rb
	OpS8Addl
	OpS4Addq
	OpS8Addq
	OpS4Subl
	OpS8Subl

	// Logical and shifts.
	OpAnd
	OpBis // logical OR (Alpha name)
	OpXor
	OpBic // and-not
	OpOrnot
	OpEqv // xor-not
	OpSll
	OpSrl
	OpSra

	// Comparisons (produce 0/1).
	OpCmpeq
	OpCmplt
	OpCmple
	OpCmpult
	OpCmpule

	// Byte manipulation.
	OpSextb
	OpSextw
	OpZapnot // zero bytes not selected by the 8-bit immediate mask
	OpMskbl  // clear byte selected by low address bits (simplified)
	OpInsbl  // insert byte (simplified)
	OpExtbl  // extract byte
	OpExtwl  // extract word
	OpCttz   // count trailing zeros (Alpha CIX extension)
	OpCtlz   // count leading zeros
	OpCtpop  // population count

	// Address arithmetic (memory format, no access).
	OpLda  // Ra = Rb + disp
	OpLdah // Ra = Rb + disp*65536

	// Loads.
	OpLdbu // zero-extended byte
	OpLdwu // zero-extended 16-bit
	OpLdl  // sign-extended 32-bit
	OpLdq  // 64-bit
	OpLdt  // FP 64-bit

	// Stores.
	OpStb
	OpStw
	OpStl
	OpStq
	OpStt // FP 64-bit

	// Floating point (operate format on FP registers).
	OpAddt
	OpSubt
	OpMult
	OpDivt
	OpSqrtt
	OpCpys   // FP move/copy-sign
	OpCvtqt  // int reg pattern -> FP value
	OpCvttq  // FP value -> truncated int
	OpCmpteq // FP compare, result (0/2.0) written as FP
	OpCmptlt

	// Control (branch format; targets resolved to instruction indices).
	OpBr  // unconditional, writes link into Ra
	OpBsr // call, writes link into Ra
	OpBeq
	OpBne
	OpBlt
	OpBle
	OpBgt
	OpBge
	OpBlbc // branch if low bit clear
	OpBlbs // branch if low bit set

	// Control (jump format; through Rb).
	OpJmp
	OpJsr
	OpRet

	// Mini-graph handle.
	OpMG

	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

// OpInfo is the static description of an opcode.
type OpInfo struct {
	Name        string
	Class       Class
	Fmt         Fmt
	Latency     int  // execution latency in cycles (hit latency for loads)
	Conditional bool // branch-format: conditional?
	WritesLink  bool // branch/jump-format: writes return address into Ra?
}

var opTable = [NumOpcodes]OpInfo{
	OpNop:  {Name: "nop", Class: ClassNop, Fmt: FmtNone, Latency: 1},
	OpHalt: {Name: "halt", Class: ClassHalt, Fmt: FmtNone, Latency: 1},

	OpAddl:   {Name: "addl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpAddq:   {Name: "addq", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSubl:   {Name: "subl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSubq:   {Name: "subq", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpMull:   {Name: "mull", Class: ClassIntMul, Fmt: FmtOperate, Latency: 7},
	OpMulq:   {Name: "mulq", Class: ClassIntMul, Fmt: FmtOperate, Latency: 7},
	OpS4Addl: {Name: "s4addl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpS8Addl: {Name: "s8addl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpS4Addq: {Name: "s4addq", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpS8Addq: {Name: "s8addq", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpS4Subl: {Name: "s4subl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpS8Subl: {Name: "s8subl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},

	OpAnd:   {Name: "and", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpBis:   {Name: "bis", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpXor:   {Name: "xor", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpBic:   {Name: "bic", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpOrnot: {Name: "ornot", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpEqv:   {Name: "eqv", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSll:   {Name: "sll", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSrl:   {Name: "srl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSra:   {Name: "sra", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},

	OpCmpeq:  {Name: "cmpeq", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCmplt:  {Name: "cmplt", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCmple:  {Name: "cmple", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCmpult: {Name: "cmpult", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCmpule: {Name: "cmpule", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},

	OpSextb:  {Name: "sextb", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpSextw:  {Name: "sextw", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpZapnot: {Name: "zapnot", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpMskbl:  {Name: "mskbl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpInsbl:  {Name: "insbl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpExtbl:  {Name: "extbl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpExtwl:  {Name: "extwl", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCttz:   {Name: "cttz", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCtlz:   {Name: "ctlz", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},
	OpCtpop:  {Name: "ctpop", Class: ClassIntALU, Fmt: FmtOperate, Latency: 1},

	OpLda:  {Name: "lda", Class: ClassIntALU, Fmt: FmtLda, Latency: 1},
	OpLdah: {Name: "ldah", Class: ClassIntALU, Fmt: FmtLda, Latency: 1},

	OpLdbu: {Name: "ldbu", Class: ClassLoad, Fmt: FmtMem, Latency: 2},
	OpLdwu: {Name: "ldwu", Class: ClassLoad, Fmt: FmtMem, Latency: 2},
	OpLdl:  {Name: "ldl", Class: ClassLoad, Fmt: FmtMem, Latency: 2},
	OpLdq:  {Name: "ldq", Class: ClassLoad, Fmt: FmtMem, Latency: 2},
	OpLdt:  {Name: "ldt", Class: ClassLoad, Fmt: FmtMem, Latency: 2},

	OpStb: {Name: "stb", Class: ClassStore, Fmt: FmtMem, Latency: 1},
	OpStw: {Name: "stw", Class: ClassStore, Fmt: FmtMem, Latency: 1},
	OpStl: {Name: "stl", Class: ClassStore, Fmt: FmtMem, Latency: 1},
	OpStq: {Name: "stq", Class: ClassStore, Fmt: FmtMem, Latency: 1},
	OpStt: {Name: "stt", Class: ClassStore, Fmt: FmtMem, Latency: 1},

	OpAddt:   {Name: "addt", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},
	OpSubt:   {Name: "subt", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},
	OpMult:   {Name: "mult", Class: ClassFPMul, Fmt: FmtOperate, Latency: 4},
	OpDivt:   {Name: "divt", Class: ClassFPDiv, Fmt: FmtOperate, Latency: 12},
	OpSqrtt:  {Name: "sqrtt", Class: ClassFPDiv, Fmt: FmtOperate, Latency: 18},
	OpCpys:   {Name: "cpys", Class: ClassFPALU, Fmt: FmtOperate, Latency: 1},
	OpCvtqt:  {Name: "cvtqt", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},
	OpCvttq:  {Name: "cvttq", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},
	OpCmpteq: {Name: "cmpteq", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},
	OpCmptlt: {Name: "cmptlt", Class: ClassFPALU, Fmt: FmtOperate, Latency: 4},

	OpBr:   {Name: "br", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, WritesLink: true},
	OpBsr:  {Name: "bsr", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, WritesLink: true},
	OpBeq:  {Name: "beq", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBne:  {Name: "bne", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBlt:  {Name: "blt", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBle:  {Name: "ble", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBgt:  {Name: "bgt", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBge:  {Name: "bge", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBlbc: {Name: "blbc", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},
	OpBlbs: {Name: "blbs", Class: ClassBranch, Fmt: FmtBranch, Latency: 1, Conditional: true},

	OpJmp: {Name: "jmp", Class: ClassJump, Fmt: FmtJump, Latency: 1},
	OpJsr: {Name: "jsr", Class: ClassJump, Fmt: FmtJump, Latency: 1, WritesLink: true},
	OpRet: {Name: "ret", Class: ClassJump, Fmt: FmtJump, Latency: 1},

	OpMG: {Name: "mg", Class: ClassMG, Fmt: FmtMG, Latency: 1},
}

// Info returns the static description of the opcode.
func (o Opcode) Info() *OpInfo {
	if int(o) >= NumOpcodes {
		return &opTable[OpNop]
	}
	return &opTable[o]
}

// String returns the assembly mnemonic.
func (o Opcode) String() string { return o.Info().Name }

// OpcodeByName maps an assembly mnemonic to its opcode.
func OpcodeByName(name string) (Opcode, bool) {
	o, ok := opByName[name]
	return o, ok
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for i := 0; i < NumOpcodes; i++ {
		m[opTable[i].Name] = Opcode(i)
	}
	// Common aliases.
	m["or"] = OpBis
	m["mov"] = OpBis // assembler expands mov ra,rc => bis ra,ra,rc
	return m
}()

// MiniGraphEligible reports whether an instruction with this opcode may be a
// constituent of a mini-graph. The paper restricts constituents to
// single-cycle integer operations plus at most one memory operation and at
// most one terminal (direct conditional or unconditional) branch.
// Floating-point operations, multiplies, indirect jumps, calls and returns
// are excluded; calls/returns break atomicity and multi-cycle arithmetic
// does not fit the one-instruction-per-MGST-bank discipline.
func (o Opcode) MiniGraphEligible() bool {
	info := o.Info()
	switch info.Class {
	case ClassIntALU:
		return true
	case ClassLoad, ClassStore:
		return o != OpLdt && o != OpStt
	case ClassBranch:
		// Link-writing branches (br/bsr) are calls or jumps used for
		// control restructuring; only plain conditional branches and the
		// non-linking unconditional form qualify.
		return info.Conditional
	}
	return false
}
