// Package program provides static program analysis over isa.Program:
// control-flow graph construction, basic blocks, global register liveness,
// and execution-frequency profiles. Mini-graph extraction (internal/core)
// builds on these analyses: basic blocks bound mini-graph atomicity, and
// liveness proves that interior values are transient.
package program

import (
	"fmt"

	"minigraph/internal/isa"
)

// RegSet is a bitset over the 64 architectural registers.
type RegSet uint64

// Add returns the set with r added. Hardwired zero registers are never
// tracked (they are not real storage).
func (s RegSet) Add(r isa.Reg) RegSet {
	if r.IsZero() || !r.Valid() {
		return s
	}
	return s | 1<<uint(r)
}

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	if !r.Valid() {
		return false
	}
	return s&(1<<uint(r)) != 0
}

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Minus returns s \ t.
func (s RegSet) Minus(t RegSet) RegSet { return s &^ t }

// AllRegs is the set of every architectural register.
const AllRegs RegSet = ^RegSet(0)

// Block is a basic block: a maximal single-entry straight-line run of
// instructions [Start, End).
type Block struct {
	Index int
	Start isa.PC // first instruction
	End   isa.PC // one past the last instruction
	// Succs lists the possible successor block start PCs. Indirect jumps
	// yield no static successors; Unknown is set instead.
	Succs []isa.PC
	// Unknown marks blocks whose successors cannot be determined statically
	// (indirect jump / jsr / ret / halt at end of text).
	Unknown bool
}

// Len returns the instruction count of the block.
func (b *Block) Len() int { return int(b.End - b.Start) }

// CFG is the control-flow graph of a program.
type CFG struct {
	Prog    *isa.Program
	Blocks  []*Block
	blockOf []int // instruction index -> block index
}

// BlockOf returns the block containing pc.
func (g *CFG) BlockOf(pc isa.PC) *Block {
	return g.Blocks[g.blockOf[pc]]
}

// BlockIndexOf returns the index of the block containing pc.
func (g *CFG) BlockIndexOf(pc isa.PC) int { return g.blockOf[pc] }

// BuildCFG partitions the program into basic blocks and records successor
// edges. Handles (OpMG) with terminal branches act as block terminators,
// exactly like the branches they encapsulate; their targets must be supplied
// via the optional handleTargets map (handle PC -> taken-target PC). For
// plain programs pass nil.
func BuildCFG(p *isa.Program, handleTargets map[isa.PC]isa.PC) *CFG {
	n := p.Len()
	leader := make([]bool, n+1)
	if n > 0 {
		leader[p.Entry] = true
	}
	markTarget := func(t int64) {
		if t >= 0 && t < int64(n) {
			leader[t] = true
		}
	}
	for i := 0; i < n; i++ {
		in := p.At(isa.PC(i))
		info := in.Op.Info()
		switch {
		case info.Fmt == isa.FmtBranch:
			markTarget(in.Imm)
			leader[i+1] = true
		case info.Fmt == isa.FmtJump, in.Op == isa.OpHalt:
			leader[i+1] = true
		case in.Op == isa.OpMG:
			if t, ok := handleTargets[isa.PC(i)]; ok {
				markTarget(int64(t))
				leader[i+1] = true
			}
		}
	}
	// Text-label symbols are potential indirect-jump targets; treat them as
	// leaders so indirect control lands on block boundaries.
	for _, pc := range p.Symbols {
		if int(pc) < n {
			leader[pc] = true
		}
	}

	g := &CFG{Prog: p, blockOf: make([]int, n)}
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := &Block{Index: len(g.Blocks), Start: isa.PC(start), End: isa.PC(i)}
			g.fillSuccs(b, handleTargets)
			for j := start; j < i; j++ {
				g.blockOf[j] = b.Index
			}
			g.Blocks = append(g.Blocks, b)
			start = i
		}
	}
	return g
}

func (g *CFG) fillSuccs(b *Block, handleTargets map[isa.PC]isa.PC) {
	p := g.Prog
	if b.Len() == 0 {
		return
	}
	last := b.End - 1
	in := p.At(last)
	info := in.Op.Info()
	addFallthrough := func() {
		if int(b.End) < p.Len() {
			b.Succs = append(b.Succs, b.End)
		}
	}
	switch {
	case info.Fmt == isa.FmtBranch:
		b.Succs = append(b.Succs, isa.PC(in.Imm))
		if info.Conditional {
			addFallthrough()
		}
	case info.Fmt == isa.FmtJump:
		b.Unknown = true
	case in.Op == isa.OpHalt:
		// no successors
	case in.Op == isa.OpMG:
		if t, ok := handleTargets[last]; ok {
			b.Succs = append(b.Succs, t)
			addFallthrough()
		} else {
			addFallthrough()
		}
	default:
		addFallthrough()
	}
}

// String summarises the CFG for debugging.
func (g *CFG) String() string {
	s := ""
	for _, b := range g.Blocks {
		s += fmt.Sprintf("B%d [%d,%d) -> %v", b.Index, b.Start, b.End, b.Succs)
		if b.Unknown {
			s += " (indirect)"
		}
		s += "\n"
	}
	return s
}
