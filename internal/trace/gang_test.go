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
// shared-decode ring must be invisible.
func TestGangCursorMatchesReader(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	const limit = 20_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.NewGangReader(tr, prog, 512)
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

// TestGangLagWindowBoundary pins the exact edge of the shared ring: a
// cursor exactly `window` records behind the decode frontier is still
// served from the ring, one record further back takes the private-decode
// fallback — and both are byte-identical to a solo Reader. This is the
// can't-silently-clamp test: the window boundary must shift cost, never
// content.
func TestGangLagWindowBoundary(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	const limit = 10_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	const window = 1024
	g := trace.NewGangReader(tr, prog, window)
	if g.Window() != window {
		t.Fatalf("window %d, want %d (power of two kept as-is)", g.Window(), window)
	}
	lead := g.Cursor(limit)
	lag := g.Cursor(limit)

	// Advance the leader so the frontier sits at `window+1`; the ring now
	// holds records [1, window+1).
	var rec emu.Record
	for i := 0; i < window+1; i++ {
		if !lead.NextInto(&rec) {
			t.Fatalf("leader exhausted at %d", i)
		}
	}
	if g.Decoded() != window+1 {
		t.Fatalf("frontier %d, want %d", g.Decoded(), window+1)
	}

	// The lagging cursor reads record 1 — exactly `window` behind the
	// frontier, the oldest record still in the ring.
	soloBefore, sharedBefore := g.SoloFills(), g.SharedServes()
	var want emu.Record
	trace.NewReader(tr, prog, limit).NextInto(&want) // record 0 for comparison below
	lag.Rewind(0)                                    // no-op (already at 0), pins rewind-to-zero legality
	if !lag.NextInto(&rec) {
		t.Fatal("lag cursor exhausted at record 0")
	}
	// Record 0 is one *past* the window edge (frontier-window-1): private.
	if g.SoloFills() != soloBefore+1 {
		t.Fatalf("record 0 at lag window+1: soloFills %d→%d, want a private decode", soloBefore, g.SoloFills())
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("private-decode record differs from Reader:\ngang:   %+v\nreader: %+v", rec, want)
	}

	// Record 1 is exactly `window` behind: still a ring serve.
	sharedBefore = g.SharedServes()
	rd := trace.NewReader(tr, prog, limit)
	rd.NextInto(&want)
	rd.NextInto(&want) // record 1
	if !lag.NextInto(&rec) {
		t.Fatal("lag cursor exhausted at record 1")
	}
	if g.SharedServes() != sharedBefore+1 {
		t.Fatalf("record 1 at lag=window: sharedServes did not grow (solo %d shared %d)", g.SoloFills(), g.SharedServes())
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("ring-served record differs from Reader:\ngang:   %+v\nreader: %+v", rec, want)
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
	g := trace.NewGangReader(tr, prog, 0)
	if g.Window() != trace.DefaultGangWindow {
		t.Fatalf("default window %d, want %d", g.Window(), trace.DefaultGangWindow)
	}
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

	g := trace.NewGangReader(tr, prog, 4096)
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
	if g.SharedServes() == 0 {
		t.Error("interleaved gang never hit the shared ring")
	}
}

// TestGangSpilledReplayAllocatesPerChunk: the engine gangs only under
// bounded replay, so a gang's decode frontier always runs over spilled
// chunks — and must pay for a chunk when it crosses into it, not for
// every record in it. (It once looked its chunk up in the window per
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
