package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/store"
	"minigraph/internal/store/storetest"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// Tiny chunk geometry for tests: 3000-record captures split into 12
// chunks, of which at most 2 are resident per replay cursor — the trace
// is ~6x larger than the residency cap, so replay must stream.
const (
	testChunkRecords = 256
	testChunkWindow  = 2
)

func chunkedEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return New(2).WithStore(openStore(t, dir)).
		WithTraceChunkRecords(testChunkRecords).
		WithTraceChunkWindow(testChunkWindow)
}

// TestBoundedMemorySweep is the larger-than-RAM acceptance test: a sweep
// whose traces exceed the resident chunk cap completes byte-identical to
// the unbounded fully-resident run, and the peak resident window bytes
// never exceed window x chunk bytes.
func TestBoundedMemorySweep(t *testing.T) {
	ctx := context.Background()
	jobs := storeJobs()

	// Unbounded reference: memo-only engine, traces fully resident.
	refOuts, err := New(2).Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	eng := chunkedEngine(t, t.TempDir())
	outs, err := eng.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a, err1 := EncodeOutcome(refOuts[i])
		b, err2 := EncodeOutcome(outs[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %d: bounded-window outcome diverged from unbounded run", i)
		}
	}

	st := eng.Stats()
	if st.TraceChunkFaults == 0 {
		t.Fatal("no chunk faults: replay never streamed, the bound was not exercised")
	}
	if st.TraceChunkEvictions == 0 {
		t.Error("no chunk evictions although traces exceed the window")
	}
	// A window chunk holds its first pc (≤ 9 bytes) and rows, at most
	// MaxRecordBytes each, 7 spare bytes and an index of 8 bytes every 64
	// rows: under one byte a row more.
	capBytes := int64(testChunkWindow) * testChunkRecords * (trace.MaxRecordBytes + 1)
	if st.TraceChunkWindowPeakBytes == 0 || st.TraceChunkWindowPeakBytes > capBytes {
		t.Errorf("peak resident window bytes %d, want in (0, %d]", st.TraceChunkWindowPeakBytes, capBytes)
	}
}

// latencyArms is one TraceKey group: arms over bench's mini-graph binary
// that differ in memory latency only. maxRecords keeps the arms fast.
func latencyArms(bench string, maxRecords int64, memLatencies ...int) []SimJob {
	var jobs []SimJob
	for _, ml := range memLatencies {
		cfg := uarch.MiniGraph(true)
		cfg.MemLatency = ml
		cfg.MaxRecords = maxRecords
		jobs = append(jobs, SimJob{
			Prepare: PrepareKey{Bench: bench, Input: workload.InputTrain},
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  cfg,
		})
	}
	return jobs
}

// configSweepJobs is a multi-bench, multi-config sweep: every bench
// contributes one TraceKey group whose arms differ in machine config only
// (memory latency and collapsing).
func configSweepJobs(maxRecords int64, benches ...string) []SimJob {
	var jobs []SimJob
	for _, bench := range benches {
		jobs = append(jobs, latencyArms(bench, maxRecords, 0, 140, 160)...)
		collapse := latencyArms(bench, maxRecords, 0)[0]
		collapse.Config.Collapse = true
		jobs = append(jobs, collapse)
	}
	return jobs
}

func encodedOutcomes(t *testing.T, outs []*Outcome) [][]byte {
	t.Helper()
	enc := make([][]byte, len(outs))
	for i, out := range outs {
		var err error
		if enc[i], err = EncodeOutcome(out); err != nil {
			t.Fatal(err)
		}
	}
	return enc
}

// TestBoundedSweepMatchesSequential: a multi-bench, multi-config sweep on
// a bounded engine, every arm replaying the spilled trace through its own
// windowed cursor, produces outcomes byte-identical (canonical
// EncodeOutcome bytes) to the same sweep run arm by arm over resident
// traces, while a duplicate submission on one arm's key is canceled
// mid-sweep, which must perturb nothing. Each bench is captured once.
func TestBoundedSweepMatchesSequential(t *testing.T) {
	jobs := configSweepJobs(60_000, "sha", "adpcm.enc")

	wantOuts, err := New(1).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := encodedOutcomes(t, wantOuts)

	e := chunkedEngine(t, t.TempDir())
	// A concurrent duplicate Simulate on one arm's key joins the in-flight
	// call as a waiter and is then canceled while the sweep runs. Its
	// cancellation must neither fail an arm nor change any arm's bytes.
	dupCtx, cancelDup := context.WithCancel(context.Background())
	dupErr := make(chan error, 1)
	var dupOnce sync.Once
	gotOuts, err := e.RunEach(context.Background(), jobs, func(i int, out *Outcome) {
		dupOnce.Do(func() {
			go func() {
				_, err := e.Simulate(dupCtx, jobs[len(jobs)-1])
				dupErr <- err
			}()
			time.Sleep(5 * time.Millisecond)
			cancelDup()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if derr := <-dupErr; derr != nil && !errors.Is(derr, context.Canceled) {
		t.Fatalf("canceled duplicate got a non-cancellation error: %v", derr)
	}
	for i, got := range encodedOutcomes(t, gotOuts) {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("arm %d (%s @ mem%d): bounded outcome differs from sequential",
				i, jobs[i].Prepare.Bench, jobs[i].Config.MemLatency)
		}
	}

	st := e.Stats()
	if st.SimRuns != int64(len(jobs)) {
		t.Errorf("sim runs %d, want %d", st.SimRuns, len(jobs))
	}
	if st.TraceCaptures != 2 || st.TraceReplayHits != int64(len(jobs))-2 {
		t.Errorf("captures=%d replayHits=%d, want 2/%d", st.TraceCaptures, st.TraceReplayHits, len(jobs)-2)
	}
	if st.TraceChunkFaults == 0 {
		t.Error("no chunk faults: the arms did not replay spilled")
	}
}

// TestBoundedArmsShareOneTrace runs every arm of one TraceKey group on a
// bounded engine, whose two workers replay the one spilled trace through
// concurrent cursors, and checks every arm against an independently
// computed solo outcome. CI runs it under -race: concurrent cursors over
// one spilled trace, faulting its chunks through the store, must be
// data-race-free against the engine's waiters.
func TestBoundedArmsShareOneTrace(t *testing.T) {
	jobs := latencyArms(testBench, 60_000, 0, 110, 120, 130, 140, 150, 160, 170)
	e := chunkedEngine(t, t.TempDir())
	outs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceCaptures != 1 || st.TraceChunkFaults == 0 {
		t.Fatalf("captures=%d chunk faults=%d, want one capture replayed spilled", st.TraceCaptures, st.TraceChunkFaults)
	}

	solo := New(1)
	for i, job := range jobs {
		ref, err := solo.Simulate(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := EncodeOutcome(outs[i])
		b, _ := EncodeOutcome(ref)
		if !bytes.Equal(a, b) {
			t.Errorf("arm %d (mem%d): bounded outcome differs from solo", i, job.Config.MemLatency)
		}
	}
}

// TestStoredTraceIndependentOfReplayRegime: a resident engine and a
// bounded-window one publish a captured trace as the same segment, byte for
// byte, so a cold engine or a peer reads the same bytes whichever regime
// wrote them; right after the capture the bounded engine holds the trace
// spilled behind the store, the resident one holds it in memory.
func TestStoredTraceIndependentOfReplayRegime(t *testing.T) {
	job := storeJobs()[1] // sha, mini-graphs: twelve 256-record chunks
	stored := func(window int) ([]byte, int64) {
		t.Helper()
		dir := t.TempDir()
		e := New(2).WithStore(openStore(t, dir)).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(window)
		if _, err := e.Simulate(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		var segs [][]byte
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && filepath.Ext(p) == store.SegExt {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				segs = append(segs, data)
			}
			return nil
		})
		if len(segs) != 1 {
			t.Fatalf("window %d: the job stored %d segments, want 1", window, len(segs))
		}
		return segs[0], e.Stats().TraceResidentBytes
	}
	resident, held := stored(0)
	bounded, heldBounded := stored(testChunkWindow)
	if !bytes.Equal(resident, bounded) {
		t.Errorf("the segments differ: %d bytes resident, %d bytes bounded", len(resident), len(bounded))
	}
	if held == 0 || heldBounded != 0 {
		t.Errorf("resident bytes after the capture: %d resident (want > 0), %d bounded (want 0)", held, heldBounded)
	}
}

// warmChunked captures one job's trace in chunked form into dir and
// returns the trace key plus its manifest as persisted.
func warmChunked(t *testing.T, dir string, job SimJob) (TraceKey, trace.Manifest) {
	t.Helper()
	ctx := context.Background()
	eng := chunkedEngine(t, dir)
	if _, err := eng.Simulate(ctx, job); err != nil {
		t.Fatal(err)
	}
	tk := job.Key().TraceKey()
	kb, err := EncodeTraceKey(tk)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	data, ok := st.GetRecord(kb, -1, kb)
	if !ok {
		t.Fatal("warm run persisted no manifest")
	}
	m, err := trace.DecodeManifest(data)
	if err != nil {
		t.Fatalf("persisted manifest does not decode: %v", err)
	}
	if len(m.Chunks) < 4 {
		t.Fatalf("trace persisted in %d chunks; the crash scenarios need several", len(m.Chunks))
	}
	return tk, m
}

// TestChunkCrashConsistency plants what a crash or a bad disk can leave of a
// stored trace now that a trace is one segment published by one rename. A
// process killed before the rename — every chunk appended, the manifest
// never written — leaves no segment at all, only a staging file that a
// later Open sweeps. Nothing can remove a chunk from under a published
// manifest any more; the nearest thing is a segment one of whose chunks no
// longer verifies, and that goes whole, by a scrub or by the first read.
// Either way an engine (scrubbed or not) sees a clean miss and recomputes
// byte-identical results rather than replaying partial state.
func TestChunkCrashConsistency(t *testing.T) {
	ctx := context.Background()
	base := storeJobs()[1] // minigraph arm; its trace persists chunked
	arm := base
	arm.Config.MemLatency += 40 // same TraceKey, distinct outcome key

	refOut, err := New(2).Simulate(ctx, arm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeOutcome(refOut)
	if err != nil {
		t.Fatal(err)
	}
	segments := func(dir string) (segs, tmps []string) {
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			switch {
			case err != nil || info.IsDir():
			case filepath.Ext(p) == store.SegExt:
				segs = append(segs, p)
			case strings.Contains(info.Name(), ".tmp-"):
				tmps = append(tmps, p)
			}
			return nil
		})
		return segs, tmps
	}

	cases := []struct {
		name string
		// tear damages the stored trace and returns the number of files a
		// scrub must then find corrupt.
		tear func(t *testing.T, dir string, st *store.Store, tk TraceKey, chunks int) (corrupt int)
	}{
		{
			name: "manifest-without-all-chunks",
			tear: func(t *testing.T, dir string, st *store.Store, tk TraceKey, chunks int) int {
				segs, _ := segments(dir)
				if len(segs) != 1 {
					t.Fatalf("want one segment, found %v", segs)
				}
				data, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/(2*chunks)] ^= 0x10 // inside chunk 0's rows
				if err := os.WriteFile(segs[0], data, 0o666); err != nil {
					t.Fatal(err)
				}
				return 1
			},
		},
		{
			name: "chunks-without-manifest",
			tear: func(t *testing.T, dir string, st *store.Store, tk TraceKey, chunks int) int {
				// Replay the writer up to the instant before the manifest
				// append, and stop there for good.
				kb, err := EncodeTraceKey(tk)
				if err != nil {
					t.Fatal(err)
				}
				w := st.BeginSegment(kb, 0)
				for i := 0; i < chunks; i++ {
					ck, err := EncodeTraceChunkKey(tk, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					frame, ok := st.GetRecord(kb, i, ck)
					if !ok || w.Append(ck, frame) != nil {
						t.Fatalf("cannot restage chunk %d", i)
					}
				}
				st.DeleteSegment(kb)
				segs, tmps := segments(dir)
				if len(segs) != 0 || len(tmps) != 1 {
					t.Fatalf("a writer killed before publish left segments %v, staging %v", segs, tmps)
				}
				return 0
			},
		},
	}
	for _, tc := range cases {
		for _, scrubbed := range []bool{true, false} {
			name := tc.name + "/unscrubbed"
			if scrubbed {
				name = tc.name + "/scrubbed"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				tk, m := warmChunked(t, dir, base)

				st := openStore(t, dir)
				wantCorrupt := tc.tear(t, dir, st, tk, len(m.Chunks))
				if scrubbed {
					if rep := st.Scrub(); rep.Corrupt != wantCorrupt || rep.Errors != 0 {
						t.Fatalf("scrub found %d corrupt, want %d (%+v)", rep.Corrupt, wantCorrupt, rep)
					}
					// A second pass finds nothing left to clean.
					if rep2 := st.Scrub(); rep2.Corrupt != 0 {
						t.Fatalf("scrub is not idempotent: %+v", rep2)
					}
					if segs, _ := segments(dir); len(segs) != 0 {
						t.Fatalf("scrub left %v", segs)
					}
				}

				cold := chunkedEngine(t, dir)
				out, err := cold.Simulate(ctx, arm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EncodeOutcome(out)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Error("torn chunked trace changed the outcome")
				}
				cs := cold.Stats()
				if cs.TraceStoreHits != 0 {
					t.Errorf("torn trace was adopted from the store: %+v", cs)
				}
				if cs.TraceCaptures != 1 {
					t.Errorf("expected exactly one re-capture, got %d", cs.TraceCaptures)
				}

				// The re-capture published a whole segment again, and the only
				// debris there ever was is a staging file: stale once its
				// writer is dead, and swept by the next Open.
				segs, tmps := segments(dir)
				if len(segs) != 1 {
					t.Fatalf("after the re-capture: segments %v", segs)
				}
				old := time.Now().Add(-time.Hour)
				for _, tmp := range tmps {
					if err := os.Chtimes(tmp, old, old); err != nil {
						t.Fatal(err)
					}
				}
				third := chunkedEngine(t, dir)
				if _, tmps := segments(dir); len(tmps) != 0 {
					t.Errorf("an Open left stale staging files: %v", tmps)
				}
				arm2 := arm
				arm2.Config.MemLatency += 40
				if _, err := third.Simulate(ctx, arm2); err != nil {
					t.Fatal(err)
				}
				if ts := third.Stats(); ts.TraceStoreHits != 1 || ts.TraceCaptures != 0 {
					t.Errorf("republished trace not served from the store: %+v", ts)
				}
			})
		}
	}
}

// TestChunkWriteFaultsReportInvariant is the chunk-level counterpart of
// TestEngineStoreFaultsReportInvariant: with every trace published chunk
// by chunk through a fault-injecting store — so individual chunk writes are
// torn, flipped, and truncated mid-stream — repeated bounded-window runs
// stay byte-identical to the fault-free reference, and a scrub
// leaves a store a clean engine reproduces the same bytes from.
func TestChunkWriteFaultsReportInvariant(t *testing.T) {
	ctx := context.Background()
	jobs := storeJobs()

	ref := New(2)
	refOuts, err := ref.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(jobs))
	for i, out := range refOuts {
		if want[i], err = EncodeOutcome(out); err != nil {
			t.Fatal(err)
		}
	}

	fi := storetest.New(storetest.Config{
		TornWrite: 0.3, BitFlip: 0.3, Truncate: 0.2,
		WriteErr: 0.2, ReadErr: 0.2, Seed: 7,
	})
	dir := t.TempDir()
	for run := 0; run < 3; run++ {
		st, err := store.Open(dir, store.Options{MaxBytes: -1, FS: fi})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(2).WithStore(st).
			WithTraceChunkRecords(testChunkRecords).
			WithTraceChunkWindow(testChunkWindow)
		outs, err := eng.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("run %d under chunk faults failed: %v", run, err)
		}
		for i, out := range outs {
			got, err := EncodeOutcome(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("run %d job %d: chunk-fault run diverged from reference", run, i)
			}
		}
	}
	if fi.Counters().Total() == 0 {
		t.Fatal("fault mix injected nothing; chunk writes were never torn")
	}

	st, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Scrub()
	if rep.Errors != 0 {
		t.Errorf("scrub errors: %+v", rep)
	}
	clean := New(2).WithStore(st).
		WithTraceChunkRecords(testChunkRecords).
		WithTraceChunkWindow(testChunkWindow)
	outs, err := clean.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		got, err := EncodeOutcome(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("post-scrub job %d: report diverged", i)
		}
	}
}

// TestSegmentLostUnderReader: an engine holding a trace spilled behind the
// store loses the segment under it — evicted by another process, or
// replaced by a file of another shape — between two arms. The next arm's
// first chunk fault misses, and the one recovery there is runs: evict the
// stale handle, re-source (the store no longer has it, so capture, and
// publish again), replay. Same bytes as a resident run, one counted
// recapture, and the store serves the trace to a cold engine afterwards.
func TestSegmentLostUnderReader(t *testing.T) {
	ctx := context.Background()
	base := storeJobs()[1]
	arm := base
	arm.Config.MemLatency += 40 // same TraceKey, distinct outcome key
	refOut, err := New(2).Simulate(ctx, arm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeOutcome(refOut)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := EncodeTraceKey(base.Key().TraceKey())
	if err != nil {
		t.Fatal(err)
	}

	for name, lose := range map[string]func(t *testing.T, other *store.Store){
		"evicted": func(t *testing.T, other *store.Store) { other.DeleteSegment(kb) },
		"replaced": func(t *testing.T, other *store.Store) {
			w := other.BeginSegment(kb, 0)
			w.Append([]byte("not a chunk key"), []byte("not a chunk"))
			w.Append(kb, []byte("not a manifest"))
			if err := w.Publish(); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			eng := chunkedEngine(t, dir)
			if _, err := eng.Simulate(ctx, base); err != nil {
				t.Fatal(err)
			}
			lose(t, openStore(t, dir))

			out, err := eng.Simulate(ctx, arm)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := EncodeOutcome(out); !bytes.Equal(got, want) {
				t.Error("losing the segment under a reader changed the outcome")
			}
			st := eng.Stats()
			if st.TraceChunkRecaptures != 1 || st.TraceCaptures != 2 || st.TraceStoreHits != 0 {
				t.Errorf("want one chunk miss recovered by one re-capture: %+v", st)
			}

			arm2 := arm
			arm2.Config.MemLatency += 40
			cold := chunkedEngine(t, dir)
			if _, err := cold.Simulate(ctx, arm2); err != nil {
				t.Fatal(err)
			}
			if cs := cold.Stats(); cs.TraceStoreHits != 1 || cs.TraceCaptures != 0 {
				t.Errorf("re-captured trace not served from the store: %+v", cs)
			}
		})
	}
}

// putV5Segment publishes tr under tk's key as trace codec v5 stored it:
// frames whose rows each store a pcWord (pc, Taken in bit 31) and then
// the full 8-byte values their pc produces (ea for a load or store,
// destVal for a writable Dest, storeVal for a store), under a manifest of
// today's layout whose chunk table counts those bytes. It is what a store
// written before rows dropped their pc and shrank their values holds.
func putV5Segment(t *testing.T, st *store.Store, tk TraceKey, tr *trace.Trace, prog *isa.Program) {
	t.Helper()
	kb, err := EncodeTraceKey(tk)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Manifest()
	w := st.BeginSegment(kb, 0)
	rd := trace.NewReader(tr, prog, 0)
	var rec emu.Record
	for ci, c := range m.Chunks {
		var raw []byte
		for i := int64(0); i < c.Rows && rd.NextInto(&rec); i++ {
			word := uint32(rec.PC)
			if rec.Taken {
				word |= 1 << 31
			}
			raw = binary.LittleEndian.AppendUint32(raw, word)
			if rec.IsLoad || rec.IsStore {
				raw = binary.LittleEndian.AppendUint64(raw, uint64(rec.EA))
			}
			if !rec.Dest.IsZero() && int(rec.Dest) < isa.TotalRegs {
				raw = binary.LittleEndian.AppendUint64(raw, rec.DestVal)
			}
			if rec.IsStore {
				raw = binary.LittleEndian.AppendUint64(raw, rec.StoreVal)
			}
		}
		crc := crc32.ChecksumIEEE(raw)
		frame := []byte("MGTC")
		frame = binary.LittleEndian.AppendUint16(frame, 5) // version
		frame = binary.LittleEndian.AppendUint16(frame, 0) // flags
		for _, v := range []uint32{uint32(ci), uint32(len(raw)), crc, uint32(len(raw))} {
			frame = binary.LittleEndian.AppendUint32(frame, v)
		}
		ck, err := EncodeTraceChunkKey(tk, int64(ci))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(ck, append(frame, raw...)); err != nil {
			t.Fatal(err)
		}
		m.Chunks[ci].Bytes, m.Chunks[ci].CRC = int64(len(raw)), crc
	}
	// The layout is today's; only the version differs, and the header the
	// manifest checksum does not cover holds it.
	man := trace.EncodeManifest(m)
	binary.LittleEndian.PutUint16(man[4:], 5)
	if err := w.Append(kb, man); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTraceSegmentIsRewritten: the trace codec version moved without
// moving sim.CodecVersion, so a store can hold a v5 segment under exactly
// the key a v6 engine asks for. A cold engine reads it as a miss, captures
// once and republishes the segment in v6; a second cold engine then
// replays a new arm from the store with no capture at all. Outcomes are
// byte-identical to a fresh run throughout.
func TestStaleTraceSegmentIsRewritten(t *testing.T) {
	job := storeJobs()[1] // minigraph arm
	tk := job.Key().TraceKey()
	fresh := New(2).WithTraceChunkRecords(testChunkRecords)
	want := outcomeBytes(t, fresh, job)
	tr, ok := fresh.memoTrace(tk)
	if !ok {
		t.Fatal("fresh engine holds no trace")
	}
	fresh.mu.Lock()
	prog := fresh.traces[tk].val.prog
	fresh.mu.Unlock()

	dir := t.TempDir()
	putV5Segment(t, openStore(t, dir), tk, tr, prog)

	cold := chunkedEngine(t, dir)
	if got := outcomeBytes(t, cold, job); !bytes.Equal(got, want) {
		t.Error("outcome over a stale segment differs from a fresh run")
	}
	if cs := cold.Stats(); cs.TraceStoreHits != 0 || cs.TraceCaptures != 1 {
		t.Errorf("a v5 segment was not a miss recaptured once: %+v", cs)
	}
	kb, err := EncodeTraceKey(tk)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := openStore(t, dir).GetRecord(kb, -1, kb)
	if !ok {
		t.Fatal("the recapture published no segment")
	}
	if _, err := trace.DecodeManifest(data); err != nil {
		t.Fatalf("the republished manifest does not decode: %v", err)
	}

	arm := job
	arm.Config.MemLatency += 40 // same TraceKey, distinct outcome key
	second := chunkedEngine(t, dir)
	if got := outcomeBytes(t, second, arm); !bytes.Equal(got, outcomeBytes(t, fresh, arm)) {
		t.Error("replay of the republished segment differs from a fresh run")
	}
	if ss := second.Stats(); ss.TraceStoreHits != 1 || ss.TraceCaptures != 0 {
		t.Errorf("the republished segment was not served from the store: %+v", ss)
	}
}
