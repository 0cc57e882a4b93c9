package dise

import (
	"fmt"

	"minigraph/internal/core"
	"minigraph/internal/isa"
)

// MGTTEntry is one mini-graph tag table row (§5): the first valid bit says
// the entry has been pre-processed, the second says the MGPP approved the
// mini-graph and the handle should remain un-expanded.
type MGTTEntry struct {
	Valid    bool
	Approved bool
	Err      string // why the MGPP rejected it (diagnostics)
}

// Engine is the DISE facility: a production store, the MGTT, and the MGPP
// compilation pipeline.
type Engine struct {
	aware       map[int]*Production // MGID -> production (codewords)
	transparent map[isa.Opcode][]*Production
	mgtt        map[int]MGTTEntry
	compiled    map[int]*core.Template

	// Expansions counts decode-time in-line expansions (MGTT misses and
	// transparent rewrites).
	Expansions int64
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		aware:       make(map[int]*Production),
		transparent: make(map[isa.Opcode][]*Production),
		mgtt:        make(map[int]MGTTEntry),
		compiled:    make(map[int]*core.Template),
	}
}

// Register installs a production. Aware productions (codewords) are keyed
// by MGID and fed to the MGPP; transparent productions hook an opcode.
func (e *Engine) Register(pr *Production) {
	if pr.isAware() {
		e.aware[pr.MGID] = pr
		// MGPP inspection/compilation (one copy of the expansion goes to
		// the core, a second to the MGPP — here compilation is immediate).
		t, err := pr.Compile()
		if err != nil {
			e.mgtt[pr.MGID] = MGTTEntry{Valid: true, Approved: false, Err: err.Error()}
			return
		}
		e.compiled[pr.MGID] = t
		e.mgtt[pr.MGID] = MGTTEntry{Valid: true, Approved: true}
		return
	}
	e.transparent[pr.Op] = append(e.transparent[pr.Op], pr)
}

// MGTT returns the tag-table entry for an MGID.
func (e *Engine) MGTT(mgid int) MGTTEntry { return e.mgtt[mgid] }

// Disapprove clears an MGID's approved bit, forcing decode-time expansion.
// This models a processor whose MGT cannot hold the template (capacity or
// feature mismatch) while remaining able to execute the binary — the
// portability path of §5.
func (e *Engine) Disapprove(mgid int) {
	if ent, ok := e.mgtt[mgid]; ok {
		ent.Approved = false
		ent.Err = "disapproved"
		e.mgtt[mgid] = ent
	}
}

// Decode processes one fetched instruction the way the DISE stage would:
//
//   - approved codeword: keep the handle (expanded=nil, keep=true);
//   - unapproved or unknown codeword with a production: expand in-line;
//   - unknown codeword without a production: error (unexecutable);
//   - instruction matching a transparent production: expand in-line;
//   - anything else: pass through.
func (e *Engine) Decode(in *isa.Inst, pc isa.PC) (expanded []isa.Inst, keep bool, err error) {
	if in.Op == isa.OpMG {
		if ent, ok := e.mgtt[in.MGID]; ok && ent.Valid && ent.Approved {
			return nil, true, nil
		}
		pr, ok := e.aware[in.MGID]
		if !ok {
			return nil, false, fmt.Errorf("dise: codeword MGID %d has no production", in.MGID)
		}
		e.Expansions++
		return pr.Expand(in, pc), false, nil
	}
	if prs := e.transparent[in.Op]; len(prs) > 0 {
		e.Expansions++
		return prs[0].Expand(in, pc), false, nil
	}
	return nil, true, nil
}

// BuildMGT assembles the MGT image for all approved productions. The slice
// index is the MGID; gaps (rejected or missing MGIDs) are nil and any handle
// naming them must be expanded instead.
func (e *Engine) BuildMGT(params core.ExecParams) *core.MGT {
	max := -1
	for id, ent := range e.mgtt {
		if ent.Approved && id > max {
			max = id
		}
	}
	ts := make([]*core.Template, max+1)
	for id, t := range e.compiled {
		if e.mgtt[id].Approved {
			ts[id] = t
		}
	}
	return core.NewMGT(ts, params)
}

// ProductionFromTemplate converts an MGT template back into a DISE
// production (the form a binary rewriter would plant in the executable's
// .dise section). The first interface input becomes T.RS1, the second
// T.RS2; the interface output becomes T.RD; interior values map onto $d
// registers with trivial reuse (a mini-graph needs at most two live
// interior values per consumer operand by construction, but to stay safe
// every interior producer gets a fresh $d slot modulo 2, verified for
// conflicts).
func ProductionFromTemplate(mgid int, t *core.Template) (*Production, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Assign $d registers to interior defs. A def needs to stay live until
	// its last consumer; with 2 dedicated registers a round-robin works for
	// all templates whose interior values have ≤2 simultaneous live ranges.
	// Verify and reject otherwise.
	slot := make([]int, len(t.Insns))
	for i := range slot {
		slot[i] = -1
	}
	lastUse := make([]int, len(t.Insns))
	for i, ti := range t.Insns {
		for _, o := range []core.Operand{ti.A, ti.B} {
			if o.Kind == core.OpndInt {
				lastUse[o.Idx] = i
			}
		}
	}
	var freeAt [isa.NumDiseRegs]int // $d slot free from this insn index on
	for i := range t.Insns {
		if !producesValue(t, i) || i == t.OutIdx {
			continue // the interface output lives in T.RD, not a $d slot
		}
		assigned := false
		for s := 0; s < isa.NumDiseRegs; s++ {
			if freeAt[s] <= i {
				slot[i] = s
				freeAt[s] = lastUse[i] + 1
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, fmt.Errorf("dise: template needs more than %d live interior values", isa.NumDiseRegs)
		}
	}

	param := func(o core.Operand) Param {
		switch o.Kind {
		case core.OpndExt:
			if o.Idx == 0 {
				return Param{Kind: PTRS1}
			}
			return Param{Kind: PTRS2}
		case core.OpndInt:
			if o.Idx == t.OutIdx {
				// The output insn writes T.RD; consumers read it back.
				return Param{Kind: PTRD}
			}
			return Param{Kind: PDise, Idx: slot[o.Idx]}
		case core.OpndNone:
			return Param{Kind: PReg, Reg: isa.RZero}
		}
		return Param{Kind: PNone}
	}

	pr := &Production{Op: isa.OpMG, MGID: mgid}
	for i, ti := range t.Insns {
		ri := RInsn{Op: ti.Op, Imm: ti.Imm}
		info := ti.Op.Info()
		switch info.Fmt {
		case isa.FmtOperate:
			ri.A = param(ti.A)
			if ti.B.Kind == core.OpndImm {
				ri.UseImm = true
			} else {
				ri.B = param(ti.B)
			}
		case isa.FmtLda:
			ri.B = param(ti.B)
		case isa.FmtMem:
			if info.Class == isa.ClassStore {
				ri.A = param(ti.A)
			}
			ri.B = param(ti.B)
		case isa.FmtBranch:
			ri.A = param(ti.A)
		}
		if producesValue(t, i) {
			if i == t.OutIdx {
				ri.C = Param{Kind: PTRD}
			} else {
				ri.C = Param{Kind: PDise, Idx: slot[i]}
			}
		}
		pr.Replacement = append(pr.Replacement, ri)
	}
	return pr, nil
}

func producesValue(t *core.Template, i int) bool {
	switch t.Insns[i].Op.Info().Class {
	case isa.ClassStore, isa.ClassBranch:
		return false
	}
	return true
}

// FromSelection emits the complete production set for a rewritten binary —
// the contents of its ".dise" section.
func FromSelection(templates []*core.Template) ([]*Production, error) {
	out := make([]*Production, 0, len(templates))
	for mgid, t := range templates {
		pr, err := ProductionFromTemplate(mgid, t)
		if err != nil {
			return nil, fmt.Errorf("dise: MGID %d: %w", mgid, err)
		}
		out = append(out, pr)
	}
	return out, nil
}
