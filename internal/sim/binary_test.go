package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/isa"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// idFixture is a small binary with every field the BinaryID covers set to
// something a mutation can move: two instructions, a data image of two
// segments, a symbol table and one two-instruction template.
func idFixture() (*isa.Program, []*core.Template, int64) {
	prog := &isa.Program{
		Name: "fixture",
		Insts: []isa.Inst{
			{Op: isa.OpMG, Ra: 1, Rb: 2, Rc: 3, Imm: 8, UseImm: true, MGID: 0, TextRef: false},
			{Op: isa.OpHalt, Ra: isa.RNone, Rb: isa.RNone, Rc: isa.RNone},
		},
		Data:        map[isa.Addr][]byte{0x1000: {1, 2, 3, 4}, 0x2000: {5, 6}},
		Entry:       0,
		Symbols:     map[string]isa.PC{"main": 0},
		DataSymbols: map[string]isa.Addr{"tab": 0x1000},
	}
	templates := []*core.Template{{
		Insns: []core.TemplateInsn{
			{Op: isa.OpAddq, A: core.Operand{Kind: core.OpndExt, Idx: 0}, B: core.Operand{Kind: core.OpndImm}, Imm: 4},
			{Op: isa.OpLdq, A: core.Operand{Kind: core.OpndInt, Idx: 0}, B: core.Operand{Kind: core.OpndExt, Idx: 1}},
		},
		NumIn:     2,
		OutIdx:    1,
		MemIdx:    1,
		BranchIdx: -1,
	}}
	return prog, templates, 20_000
}

// TestBinaryIDCoversTheBinary: the BinaryID is what lets two recipes share
// one trace and one pipeline run, so anything a replay depends on must
// move it — every instruction field, the entry point, any data byte, any
// template field, the record limit — and presentation must not: renaming
// the program or a symbol keeps the binary.
func TestBinaryIDCoversTheBinary(t *testing.T) {
	type binary struct {
		prog      *isa.Program
		templates []*core.Template
		limit     int64
	}
	insn := func(b *binary) *core.TemplateInsn { return &b.templates[0].Insns[1] }
	inst := map[string]func(b *binary){
		"Op":      func(b *binary) { b.prog.Insts[0].Op = isa.OpAddq },
		"Ra":      func(b *binary) { b.prog.Insts[0].Ra = 4 },
		"Rb":      func(b *binary) { b.prog.Insts[0].Rb = 4 },
		"Rc":      func(b *binary) { b.prog.Insts[0].Rc = 4 },
		"Imm":     func(b *binary) { b.prog.Insts[0].Imm = 9 },
		"UseImm":  func(b *binary) { b.prog.Insts[0].UseImm = false },
		"MGID":    func(b *binary) { b.prog.Insts[0].MGID = 1 },
		"TextRef": func(b *binary) { b.prog.Insts[0].TextRef = true },
	}
	tmplInsn := map[string]func(b *binary){
		"Op":  func(b *binary) { insn(b).Op = isa.OpLdl },
		"A":   func(b *binary) { insn(b).A.Idx = 1 },
		"B":   func(b *binary) { insn(b).B.Kind = core.OpndInt },
		"Imm": func(b *binary) { insn(b).Imm = 16 },
	}
	tmpl := map[string]func(b *binary){
		"Insns":     func(b *binary) { b.templates[0].Insns = b.templates[0].Insns[:1] },
		"NumIn":     func(b *binary) { b.templates[0].NumIn = 1 },
		"OutIdx":    func(b *binary) { b.templates[0].OutIdx = 0 },
		"MemIdx":    func(b *binary) { b.templates[0].MemIdx = -1 },
		"BranchIdx": func(b *binary) { b.templates[0].BranchIdx = 1 },
	}
	// A field added to any of these types must be hashed and listed above.
	for typ, cases := range map[reflect.Type]map[string]func(*binary){
		reflect.TypeOf(isa.Inst{}):          inst,
		reflect.TypeOf(core.TemplateInsn{}): tmplInsn,
		reflect.TypeOf(core.Template{}):     tmpl,
	} {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := cases[typ.Field(i).Name]; !ok {
				t.Errorf("%s.%s has no case: hash it in binaryID and add one", typ, typ.Field(i).Name)
			}
		}
	}

	changes := map[string]func(b *binary){
		"Entry":             func(b *binary) { b.prog.Entry = 1 },
		"data byte":         func(b *binary) { b.prog.Data[0x2000][1] = 7 },
		"data address":      func(b *binary) { b.prog.Data[0x3000] = b.prog.Data[0x2000]; delete(b.prog.Data, 0x2000) },
		"operand kind":      func(b *binary) { insn(b).A.Kind = core.OpndExt },
		"template count":    func(b *binary) { b.templates = append(b.templates, b.templates[0]) },
		"instruction count": func(b *binary) { b.prog.Insts = b.prog.Insts[:1] },
		"limit":             func(b *binary) { b.limit = 0 },
	}
	for name, f := range inst {
		changes["Inst."+name] = f
	}
	for name, f := range tmplInsn {
		changes["TemplateInsn."+name] = f
	}
	for name, f := range tmpl {
		changes["Template."+name] = f
	}
	keeps := map[string]func(b *binary){
		"Name":        func(b *binary) { b.prog.Name = "renamed" },
		"Symbols":     func(b *binary) { b.prog.Symbols = map[string]isa.PC{"start": 1} },
		"DataSymbols": func(b *binary) { b.prog.DataSymbols["other"] = 0x2000 },
	}

	prog, templates, limit := idFixture()
	want := binaryID(prog, templates, limit)
	for _, tc := range []struct {
		cases map[string]func(*binary)
		moves bool
	}{{changes, true}, {keeps, false}} {
		for name, mutate := range tc.cases {
			t.Run(name, func(t *testing.T) {
				prog, templates, limit := idFixture()
				b := &binary{prog: prog, templates: templates, limit: limit}
				mutate(b)
				if got := binaryID(b.prog, b.templates, b.limit); (got != want) != tc.moves {
					t.Errorf("changing %s moved the BinaryID: %v, want %v", name, got != want, tc.moves)
				}
			})
		}
	}
}

// aliasJobs is a pair of recipes that rewrite sha into one binary: sha
// selects fewer than 256 mini-graphs, so a 512-entry and a 256-entry MGT
// hold the same templates.
func aliasJobs() (SimJob, SimJob) {
	cfg := uarch.MiniGraph(true)
	cfg.MaxRecords = 20_000
	a := SimJob{Prepare: PrepareKey{Bench: testBench, Input: workload.InputTrain}, Policy: core.DefaultPolicy(), Entries: 512, Config: cfg}
	b := a
	b.Entries = 256
	return a, b
}

// TestAliasedPoliciesShareOneCapture: two policies that select the same
// mini-graphs make one binary, so one capture and one pipeline run serve
// both; each outcome is still its own key's, byte for byte what a fresh
// engine computes for that job alone.
func TestAliasedPoliciesShareOneCapture(t *testing.T) {
	a, b := aliasJobs()
	if a.Key().TraceKey() == b.Key().TraceKey() {
		t.Fatal("the pair must be two recipes")
	}
	e := New(2)
	outs, err := e.Run(context.Background(), []SimJob{a, b})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.TraceCaptures != 1 || st.PipelineSims() != 1 || st.SimBinaryHits != 1 || st.SimRuns != 2 {
		t.Errorf("want 1 capture and 1 pipeline run for 2 aliased keys: %+v", st)
	}
	for i, job := range []SimJob{a, b} {
		got, err := EncodeOutcome(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := outcomeBytes(t, New(1), job); !bytes.Equal(got, want) {
			t.Errorf("entries %d: outcome differs from a fresh single-job engine's", job.Entries)
		}
	}
}

// TestDistinctBinariesCaptureApart: recipes whose binaries differ still
// capture and simulate once each.
func TestDistinctBinariesCaptureApart(t *testing.T) {
	a, _ := aliasJobs()
	b := a
	b.Policy = core.IntegerPolicy()
	e := New(2)
	if _, err := e.Run(context.Background(), []SimJob{a, b}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceCaptures != 2 || st.PipelineSims() != 2 || st.SimBinaryHits != 0 {
		t.Errorf("want 2 captures and 2 pipeline runs for 2 binaries: %+v", st)
	}
}

// TestEvictBinaryDropsAliases: the chunk-loss recovery evicts a binary,
// not a recipe — every TraceKey aliased to it goes with it, so no alias
// can hand a later arm the stale trace, and the next ask re-sources once.
func TestEvictBinaryDropsAliases(t *testing.T) {
	a, b := aliasJobs()
	ctx := context.Background()
	e := New(2)
	if _, err := e.Run(ctx, []SimJob{a, b}); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Key().TraceKey(), b.Key().TraceKey()
	e.evictTrace(ta)
	e.mu.Lock()
	_, aliasA := e.traces[ta]
	_, aliasB := e.traces[tb]
	bins, resident := len(e.bins), e.traceResident
	e.mu.Unlock()
	if aliasA || aliasB || bins != 0 || resident != 0 {
		t.Fatalf("after evicting the binary: alias A %v, alias B %v, %d binaries, %d resident bytes", aliasA, aliasB, bins, resident)
	}

	c := b
	c.Config.MemLatency += 40 // a new arm over the evicted binary
	if _, err := e.Simulate(ctx, c); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceCaptures != 2 {
		t.Errorf("re-sourcing the evicted binary: %d captures in all, want 2", st.TraceCaptures)
	}
	if _, ok := e.memoTrace(ta); ok {
		t.Error("an alias not asked for since the eviction resolves to a trace")
	}
	if _, ok := e.memoTrace(c.Key().TraceKey()); !ok {
		t.Error("the re-sourced binary is not served under the key that asked")
	}
}

// TestReleaseTraceKeepsAnotherAliasesBinary: a worker that borrowed one
// recipe's trace gives it back with ReleaseTrace, but a binary another of
// its recipes aliases stays resident, and the released alias, which keeps
// its recipe, still resolves through it; releasing the last alias drops
// the binary's trace.
func TestReleaseTraceKeepsAnotherAliasesBinary(t *testing.T) {
	a, b := aliasJobs()
	e := New(2)
	if _, err := e.Run(context.Background(), []SimJob{a, b}); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Key().TraceKey(), b.Key().TraceKey()
	held := e.Stats().TraceResidentBytes
	e.ReleaseTrace(ta)
	if _, ok := e.memoTrace(ta); !ok {
		t.Error("the released alias does not resolve while another alias holds its binary")
	}
	if _, ok := e.memoTrace(tb); !ok || e.Stats().TraceResidentBytes != held {
		t.Fatalf("releasing one alias dropped the binary another holds (resident %d, was %d)", e.Stats().TraceResidentBytes, held)
	}
	e.ReleaseTrace(tb)
	if got := e.Stats().TraceResidentBytes; got != 0 {
		t.Errorf("%d bytes resident after releasing every alias", got)
	}
	for _, tk := range []TraceKey{ta, tb} {
		if _, ok := e.memoTrace(tk); ok {
			t.Error("an alias resolves to a trace after every alias was released")
		}
	}
}

// TestReleaseTraceKeepsTheRecipe: a borrow, a release and a second borrow
// of one key share the key's alias — one rewrite serves both borrows — and
// the second borrow, like the first, sources the trace from the store,
// never by capturing.
func TestReleaseTraceKeepsTheRecipe(t *testing.T) {
	a, _ := aliasJobs()
	ctx := context.Background()
	dir := t.TempDir()
	// The trace's home captures it and publishes it to the store.
	if _, err := New(1).WithStore(openStore(t, dir)).Simulate(ctx, a); err != nil {
		t.Fatal(err)
	}
	e := New(1).WithStore(openStore(t, dir))
	tk := a.Key().TraceKey()
	alias := func() *call[*capturedTrace] {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.traces[tk]
	}
	borrow := func(latency int) {
		t.Helper()
		arm := a
		arm.Config.MemLatency += latency // a machine the store has no outcome for
		if _, err := e.Simulate(ctx, arm); err != nil {
			t.Fatal(err)
		}
	}
	borrow(40)
	first := alias()
	e.ReleaseTrace(tk)
	if alias() != first {
		t.Fatal("the release dropped the key's alias")
	}
	if got := e.Stats().TraceResidentBytes; got != 0 {
		t.Fatalf("%d bytes resident after the release", got)
	}
	borrow(80)
	if alias() != first {
		t.Error("the second borrow rewrote the binary")
	}
	if st := e.Stats(); st.TraceStoreHits != 2 || st.TraceCaptures != 0 {
		t.Errorf("want both borrows sourced from the store: %+v", st)
	}
	if _, ok := e.memoTrace(tk); !ok {
		t.Error("the re-borrowed trace is not served under its key")
	}
}
