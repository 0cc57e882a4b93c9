package trace_test

import (
	"context"
	"reflect"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
)

// TestGangCursorMatchesReader drives a solo Reader and a GangCursor in
// lockstep over the same trace and demands byte-identical records — the
// gang's shared window must be invisible.
func TestGangCursorMatchesReader(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	const limit = 20_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.NewGangReaderWindowed(tr, prog, 512, 0)
	cur := g.Cursor(limit)
	rd := trace.NewReader(tr, prog, limit)
	var a, b emu.Record
	for step := 0; ; step++ {
		aok := rd.NextInto(&a)
		bok := cur.NextInto(&b)
		if aok != bok {
			t.Fatalf("step %d: reader ok=%v gang ok=%v", step, aok, bok)
		}
		if !aok {
			break
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: record mismatch\nreader: %+v\ngang:   %+v", step, a, b)
		}
		if step%4096 == 0 && step > 0 {
			rd.Rewind(a.Seq - 100)
			cur.Rewind(b.Seq - 100)
		}
	}
	if (rd.Err() == nil) != (cur.Err() == nil) {
		t.Fatalf("err mismatch: reader %v gang %v", rd.Err(), cur.Err())
	}
	if !rd.Exhausted() || !cur.Exhausted() {
		t.Fatal("both cursors should be exhausted")
	}
}

// TestGangCursorLimitAndFault pins Reader-parity cut-off semantics: a
// cursor bounded at or below the trace length never observes the capture's
// architectural fault, an unbounded cursor surfaces it.
func TestGangCursorLimitAndFault(t *testing.T) {
	prog := asm.MustAssemble("fault", faultSrc)
	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.NewGangReaderWindowed(tr, prog, 0, 0)
	bounded := g.Cursor(tr.Len())
	if bounded.Err() != nil {
		t.Fatalf("bounded cursor err %v, want nil", bounded.Err())
	}
	unbounded := g.Cursor(0)
	if unbounded.Err() == nil {
		t.Fatal("unbounded cursor over a faulted trace must surface the fault")
	}
	ref := trace.NewReader(tr, prog, 0)
	if unbounded.Err().Error() != ref.Err().Error() {
		t.Fatalf("fault mismatch: gang %q reader %q", unbounded.Err(), ref.Err())
	}
	var rec emu.Record
	n := int64(0)
	for unbounded.NextInto(&rec) {
		n++
	}
	if n != tr.Len() || !unbounded.Exhausted() {
		t.Fatalf("served %d records, want %d", n, tr.Len())
	}
}

// TestGangPipelineMatchesSoloPipeline runs the same machine config over a
// solo Reader and over every position of a 4-cursor gang, concurrently
// advanced in interleaved bursts, and demands identical results. This is
// the uarch-level byte-identity guarantee the engine's gang scheduler
// relies on.
func TestGangPipelineMatchesSoloPipeline(t *testing.T) {
	prog, mgt, templates := rewritten(t, "adpcm.enc")
	const limit = 40_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.MiniGraph(true)
	cfg.MaxRecords = limit
	want, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, prog, limit)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	g := trace.NewGangReaderWindowed(tr, prog, 4096, 0)
	const arms = 4
	pipes := make([]*uarch.Pipeline, arms)
	params := core.ExecParams{LoadLat: cfg.LoadLat, Collapse: cfg.Collapse, UseAP: cfg.APs > 0}
	for i := range pipes {
		pipes[i] = uarch.NewWithSource(cfg, core.NewMGT(templates, params), g.Cursor(limit))
	}
	results := make([]*uarch.Result, arms)
	remaining := arms
	for remaining > 0 {
		for i, p := range pipes {
			if p == nil {
				continue
			}
			done, err := p.RunCycles(context.Background(), 256)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				if results[i], err = p.Finish(); err != nil {
					t.Fatal(err)
				}
				pipes[i] = nil
				remaining--
			}
		}
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("gang arm %d diverged from the solo pipeline", i)
		}
	}
}

// TestGangSpilledReplayAllocatesPerChunk: the engine gangs only under
// bounded replay, so a gang's cursors always run over spilled chunks —
// and must pay for a chunk when they cross into it, not for every record
// in it. (It once looked its chunk up in the window per
// record, and the window's LRU touch reallocated its order list each
// time: one heap allocation a record.)
func TestGangSpilledReplayAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	prog, mgt, _ := rewritten(t, "gzip")
	captured, err := trace.CaptureWith(context.Background(), prog, mgt, 100_000, trace.CaptureOptions{ChunkRecords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tr := spilled(t, captured)
	var faults int64
	allocs := testing.AllocsPerRun(3, func() {
		g := trace.NewGangReaderWindowed(tr, prog, 0, 2)
		a, b := g.Cursor(0), g.Cursor(0)
		var rec emu.Record
		for a.NextInto(&rec) && b.NextInto(&rec) {
		}
		if a.Err() != nil || b.Err() != nil || !a.Exhausted() || !b.Exhausted() {
			t.Fatalf("gang did not drain: %v, %v", a.Err(), b.Err())
		}
		faults = g.WindowStats().Faults
	})
	if faults != tr.NumChunks() {
		t.Errorf("two cursors in lockstep faulted %d chunks of %d", faults, tr.NumChunks())
	}
	if max := float64(4 * tr.NumChunks()); allocs > max {
		t.Errorf("draining %d spilled records through a gang allocated %.0f times, want at most %.0f (a handful per chunk)",
			tr.Len(), allocs, max)
	}
}
