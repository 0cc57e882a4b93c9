package trace_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"minigraph"
	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/progen"
	"minigraph/internal/trace"
	"minigraph/internal/workload"
)

// staticHalf is rec with every field a row stores (or replay derives from
// the row's position) cleared: what is left must be a function of rec.PC.
func staticHalf(rec emu.Record) emu.Record {
	rec.Seq, rec.EA, rec.Taken, rec.NextPC, rec.DestVal, rec.StoreVal = 0, 0, false, 0, 0, 0
	return rec
}

// checkStaticIsStatic runs prog live beside a replay of its capture. Every
// live record's static half must equal the first one its pc produced —
// the assumption the static table is built on, checked here so that an
// ISA or mini-graph change that makes a field dynamic fails by name —
// every value the row format leaves out for its pc must be zero, and
// every replayed record must equal the live one in full.
func checkStaticIsStatic(t *testing.T, name string, prog *isa.Program, mgt *core.MGT, limit int64) {
	t.Helper()
	tr, err := trace.CaptureWith(context.Background(), prog, mgt, limit, trace.CaptureOptions{ChunkRecords: 1 << 10})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	first := make(map[isa.PC]emu.Record)
	m := emu.NewMachine(prog, mgt)
	rd := trace.NewReader(tr, prog, 0)
	var live, replayed emu.Record
	for rd.NextInto(&replayed) {
		if err := m.Step(&live); err != nil {
			t.Fatalf("%s: record %d: live machine faulted where the trace went on: %v", name, replayed.Seq, err)
		}
		half := staticHalf(live)
		if was, ok := first[live.PC]; !ok {
			first[live.PC] = half
		} else if was != half {
			t.Fatalf("%s: pc %d is not static: record %d\nfirst: %+v\nnow:   %+v", name, live.PC, live.Seq, was, half)
		}
		if v := absentValue(&live); v != "" {
			t.Fatalf("%s: pc %d (%v) record %d: %s, which its row does not store", name, live.PC, live.Op, live.Seq, v)
		}
		if live != replayed {
			t.Fatalf("%s: record %d\nlive:   %+v\nreplay: %+v", name, live.Seq, live, replayed)
		}
	}
	if rd.Cursor() != tr.Len() {
		t.Fatalf("%s: replay stopped at %d of %d: %v", name, rd.Cursor(), tr.Len(), rd.Err())
	}
}

// absentValue names a value rec holds in a slot its pc's static entry —
// rec's static half, which the caller has checked is the entry — says a
// row at that pc does not carry: an address without a load or store, a
// destination value without a writable Dest, a stored value without a
// store. Replay reads such a slot as zero, so a non-zero one would be
// silently dropped.
func absentValue(rec *emu.Record) string {
	switch {
	case !rec.IsLoad && !rec.IsStore && rec.EA != 0:
		return fmt.Sprintf("ea %#x without a memory access", rec.EA)
	case (rec.Dest.IsZero() || int(rec.Dest) >= isa.TotalRegs) && rec.DestVal != 0:
		return fmt.Sprintf("destVal %#x without a writable Dest (%v)", rec.DestVal, rec.Dest)
	case !rec.IsStore && rec.StoreVal != 0:
		return fmt.Sprintf("storeVal %#x without a store", rec.StoreVal)
	}
	return ""
}

// miniGraphOf rewrites prog the way the engine does.
func miniGraphOf(t *testing.T, prog *isa.Program) (*isa.Program, *core.MGT) {
	t.Helper()
	prof, err := minigraph.ProfileOf(prog, minigraph.ProfileLimit)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
	if err != nil {
		t.Fatal(err)
	}
	return rw.Prog, rw.MGT
}

// TestStaticFieldsAreStatic: "static" is checked, not assumed — and so is
// the precondition of the row format, that a value a pc cannot produce is
// zero — over every registered workload and the -short progen corpus,
// baseline and mini-graph binary both.
func TestStaticFieldsAreStatic(t *testing.T) {
	limit := int64(0)
	if testing.Short() {
		limit = 50_000
	}
	progs := make(map[string]*isa.Program)
	for _, wl := range workload.All() {
		progs[wl.Name] = wl.Build(workload.InputTrain)
	}
	for seed := int64(0); seed < 60; seed++ {
		prog, err := progen.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		progs[progen.Name(seed)] = prog
	}
	for name, prog := range progs {
		checkStaticIsStatic(t, name+"/baseline", prog, nil, limit)
		mgProg, mgt := miniGraphOf(t, prog)
		checkStaticIsStatic(t, name+"/minigraph", mgProg, mgt, limit)
	}
}

// TestTakenIsStored: a conditional branch whose target is its own
// fall-through goes to the same NextPC taken or not, so Taken cannot be
// derived from where the stream went — and the predictor trains on it.
func TestTakenIsStored(t *testing.T) {
	prog := asm.MustAssemble("selfbranch", `
        .text
main:   li    r1, 2
loop:   subl  r1, 1, r1
        bne   r1, next
next:   bne   r1, loop
        halt
`)
	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(prog, nil)
	rd := trace.NewReader(tr, prog, 0)
	var live, replayed emu.Record
	taken := make(map[bool]isa.PC) // Taken → NextPC of the self-branch
	for rd.NextInto(&replayed) {
		if err := m.Step(&live); err != nil {
			t.Fatal(err)
		}
		if live != replayed {
			t.Fatalf("record %d\nlive:   %+v\nreplay: %+v", live.Seq, live, replayed)
		}
		if live.CondBranch && live.PC+1 == isa.PC(live.Inst.Imm) {
			taken[replayed.Taken] = replayed.NextPC
		}
	}
	if !m.Halted || len(taken) != 2 || taken[true] != taken[false] {
		t.Fatalf("the self-branch should run taken and not taken to one NextPC: halted=%v %v", m.Halted, taken)
	}
}

// TestMisfitProgramIsAMiss: a trace opened over a program its static
// table does not describe serves nothing and reports ErrChunkUnavailable,
// through a solo reader and a gang cursor alike.
func TestMisfitProgramIsAMiss(t *testing.T) {
	prog := asm.MustAssemble("seed", fuzzSeedSrc)
	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	longer := *prog
	longer.Insts = append(append([]isa.Inst{}, prog.Insts...), isa.Inst{Op: isa.OpNop})
	otherOp := *prog
	otherOp.Insts = append([]isa.Inst{}, prog.Insts...)
	otherOp.Insts[4].Op = isa.OpSubq // the loop's addq, executed five times
	same := *prog
	same.Insts = append([]isa.Inst{}, prog.Insts...)

	var rec emu.Record
	for name, bound := range map[string]*isa.Program{"longer": &longer, "other opcode": &otherOp} {
		rd := trace.NewReader(tr, bound, 0)
		if rd.NextInto(&rec) || !rd.Exhausted() || !errors.Is(rd.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: solo reader served a record or reported %v", name, rd.Err())
		}
		cur := trace.NewGangReaderWindowed(tr, bound, 0, 0).Cursor(0)
		if cur.NextInto(&rec) || !cur.Exhausted() || !errors.Is(cur.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: gang cursor served a record or reported %v", name, cur.Err())
		}
	}
	if rd := trace.NewReader(tr, &same, 0); rd.Err() != nil || !rd.NextInto(&rec) {
		t.Errorf("a structurally identical copy of the program did not bind: %v", rd.Err())
	}
}
