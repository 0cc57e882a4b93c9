// Package core implements the paper's primary contribution: dataflow
// mini-graphs. It provides
//
//   - the mini-graph template model (the logical contents of the MGT),
//   - structural legality rules (§3.1): singleton interface (two register
//     inputs, one register output), at most one memory operation, at most
//     one terminal control transfer, basic-block atomicity,
//   - candidate enumeration over basic-block dataflow graphs with the
//     anchor-based register/memory interference checks (§3.2),
//   - the greedy coverage-driven selection algorithm (§3.2), and
//   - the physical MGT organisation (§4.1): the header table (MGHT) with
//     scheduling information (LAT, FU0, FUBMP) and the cycle-banked
//     sequencing table (MGST).
package core

import (
	"fmt"
	"strings"

	"minigraph/internal/isa"
)

// MaxInputs and MaxOutputs fix the handle interface: mini-graphs look like
// singleton instructions (two register inputs, one register output).
const (
	MaxInputs  = 2
	MaxOutputs = 1
)

// OperandKind says where a template instruction's operand value comes from.
type OperandKind uint8

// Operand sources, matching the paper's MGT notation: E<i> names interface
// (External) inputs explicit in the handle; M<j> names interior values
// produced by Mini-graph instruction j; immediates live in the MGST.
const (
	OpndNone OperandKind = iota
	OpndExt              // E<Idx>: interface input register value
	OpndInt              // M<Idx>: interior value from template instruction Idx
	OpndImm              // literal from the instruction's Imm field
)

// Operand is one template-instruction operand.
type Operand struct {
	Kind OperandKind
	Idx  int
}

func (o Operand) String() string {
	switch o.Kind {
	case OpndExt:
		return fmt.Sprintf("E%d", o.Idx)
	case OpndInt:
		return fmt.Sprintf("M%d", o.Idx)
	case OpndImm:
		return "IM"
	}
	return "-"
}

// TemplateInsn is one instruction inside a mini-graph template. Operand
// roles follow isa.Inst: A is the first source (store data / branch test),
// B the second (memory base). Displacements and literals are in Imm. For
// the terminal branch, Imm is the branch displacement relative to the
// handle PC, so instances at different addresses with the same relative
// target coalesce into one template.
type TemplateInsn struct {
	Op   isa.Opcode
	A, B Operand
	Imm  int64
}

func (ti TemplateInsn) String() string {
	return fmt.Sprintf("%s %s,%s,%d", ti.Op, ti.A, ti.B, ti.Imm)
}

// Template is the logical MGT row: the complete definition of one
// mini-graph. Instructions appear in execution (program) order; interior
// dataflow is encoded positionally via OpndInt operands.
type Template struct {
	Insns []TemplateInsn
	// NumIn is the number of interface inputs used (0..2).
	NumIn int
	// OutIdx is the index of the instruction producing the interface output
	// register, or -1 if the mini-graph has no register output (e.g. a
	// store- or branch-terminated graph with no live result).
	OutIdx int
	// MemIdx is the index of the (single) memory operation, or -1.
	MemIdx int
	// BranchIdx is the index of the terminal control transfer, or -1. When
	// present it is always the last instruction (terminality).
	BranchIdx int
}

// Size returns the number of constituent instructions.
func (t *Template) Size() int { return len(t.Insns) }

// HasLoad reports whether the template's memory op is a load.
func (t *Template) HasLoad() bool {
	return t.MemIdx >= 0 && t.Insns[t.MemIdx].Op.Info().Class == isa.ClassLoad
}

// IsInteger reports whether the template contains no memory operation
// (an "integer mini-graph" in the paper's terminology; terminal branches
// are allowed).
func (t *Template) IsInteger() bool { return t.MemIdx < 0 }

// InteriorLoad reports whether the template contains a load that is not the
// final instruction; such graphs must be fully replayed when the load misses
// (§4.3, "Misses on interior loads").
func (t *Template) InteriorLoad() bool {
	return t.HasLoad() && t.MemIdx != len(t.Insns)-1
}

// SerialChain reports whether the template is a pure serial dependence
// chain: instruction i+1 consumes the value of instruction i for every i.
// Graphs that are not serial chains have internal parallelism and suffer
// internal serialization when executed one instruction per cycle (§4.1).
func (t *Template) SerialChain() bool {
	for i := 1; i < len(t.Insns); i++ {
		ti := t.Insns[i]
		if !(ti.A.Kind == OpndInt && ti.A.Idx == i-1) &&
			!(ti.B.Kind == OpndInt && ti.B.Idx == i-1) {
			return false
		}
	}
	return true
}

// ExtSerial reports whether any interface input feeds an instruction other
// than the first. Such graphs are vulnerable to external serialization: the
// first instruction spuriously waits for inputs of later instructions
// because the handle issues only when all interface inputs are ready (§4.1).
func (t *Template) ExtSerial() bool {
	for i := 1; i < len(t.Insns); i++ {
		if t.Insns[i].A.Kind == OpndExt || t.Insns[i].B.Kind == OpndExt {
			return true
		}
	}
	return false
}

// Key returns a canonical string identity for the template. Static
// mini-graphs with identical dataflows and immediate operands are
// equivalent and coalesce to one MGT entry (§3.2).
func (t *Template) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "o%d m%d br%d n%d", t.OutIdx, t.MemIdx, t.BranchIdx, t.NumIn)
	for _, ti := range t.Insns {
		fmt.Fprintf(&b, "|%d %d.%d %d.%d %d", ti.Op, ti.A.Kind, ti.A.Idx, ti.B.Kind, ti.B.Idx, ti.Imm)
	}
	return b.String()
}

// String renders the template in the paper's MGT notation (Figure 1c).
func (t *Template) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OUT=%d ", t.OutIdx)
	for i, ti := range t.Insns {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(ti.String())
	}
	return b.String()
}

// Validate checks every structural constraint of §3.1 and the internal
// consistency of the template encoding. The rewriter and the DISE MGPP both
// refuse templates that fail validation.
func (t *Template) Validate() error {
	n := len(t.Insns)
	if n < 2 {
		return fmt.Errorf("core: template must contain at least 2 instructions, has %d", n)
	}
	if t.NumIn < 0 || t.NumIn > MaxInputs {
		return fmt.Errorf("core: template has %d interface inputs, max %d", t.NumIn, MaxInputs)
	}
	if t.OutIdx < -1 || t.OutIdx >= n {
		return fmt.Errorf("core: OutIdx %d out of range", t.OutIdx)
	}
	mem, br := 0, 0
	for i, ti := range t.Insns {
		info := ti.Op.Info()
		if !ti.Op.MiniGraphEligible() {
			return fmt.Errorf("core: insn %d (%s) is not mini-graph eligible", i, ti.Op)
		}
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			mem++
			if t.MemIdx != i {
				return fmt.Errorf("core: MemIdx %d does not match memory op at %d", t.MemIdx, i)
			}
		case isa.ClassBranch:
			br++
			if i != n-1 {
				return fmt.Errorf("core: control transfer at %d is not terminal", i)
			}
			if t.BranchIdx != i {
				return fmt.Errorf("core: BranchIdx %d does not match branch at %d", t.BranchIdx, i)
			}
		}
		for _, o := range []Operand{ti.A, ti.B} {
			switch o.Kind {
			case OpndExt:
				if o.Idx < 0 || o.Idx >= t.NumIn {
					return fmt.Errorf("core: insn %d references E%d but NumIn=%d", i, o.Idx, t.NumIn)
				}
			case OpndInt:
				if o.Idx < 0 || o.Idx >= i {
					return fmt.Errorf("core: insn %d references M%d (must name an earlier insn)", i, o.Idx)
				}
			}
		}
	}
	if mem > 1 {
		return fmt.Errorf("core: %d memory operations, max 1", mem)
	}
	if mem == 0 && t.MemIdx != -1 {
		return fmt.Errorf("core: MemIdx %d but no memory op", t.MemIdx)
	}
	if br == 0 && t.BranchIdx != -1 {
		return fmt.Errorf("core: BranchIdx %d but no branch", t.BranchIdx)
	}
	if t.OutIdx >= 0 {
		switch t.Insns[t.OutIdx].Op.Info().Class {
		case isa.ClassStore, isa.ClassBranch:
			return fmt.Errorf("core: OutIdx %d names an instruction with no register result", t.OutIdx)
		}
	}
	return nil
}
