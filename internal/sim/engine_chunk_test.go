package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minigraph/internal/store"
	"minigraph/internal/trace"
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
	capBytes := int64(testChunkWindow) * testChunkRecords * trace.RecordBytes
	if st.TraceChunkWindowPeakBytes == 0 || st.TraceChunkWindowPeakBytes > capBytes {
		t.Errorf("peak resident window bytes %d, want in (0, %d]", st.TraceChunkWindowPeakBytes, capBytes)
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
// TestEngineStoreFaultsReportInvariant: with capture spilling every sealed
// chunk through a fault-injecting store — so individual chunk writes are
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

	fi := store.NewFaultInjector(store.FaultConfig{
		TornWrite: 0.3, BitFlip: 0.3, Truncate: 0.2,
		WriteErr: 0.2, ReadErr: 0.2, Seed: 7,
	})
	dir := t.TempDir()
	for run := 0; run < 3; run++ {
		st, err := store.Open(dir, store.Options{MaxBytes: -1, Faults: fi})
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
