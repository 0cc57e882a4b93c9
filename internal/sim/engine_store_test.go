package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/store"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// storeJobs is a small but representative job set: two benchmarks, each
// with a baseline and an extracted arm, bounded by MaxRecords so the
// whole warm-up is fast.
func storeJobs() []SimJob {
	var jobs []SimJob
	for _, bench := range []string{"sha", "adpcm.enc"} {
		pk := PrepareKey{Bench: bench, Input: workload.InputTrain}
		base := uarch.Baseline()
		base.MaxRecords = 3000
		jobs = append(jobs, Baseline(pk, base))
		mg := uarch.MiniGraph(true)
		mg.MaxRecords = 3000
		jobs = append(jobs, SimJob{
			Prepare: pk,
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  mg,
		})
	}
	return jobs
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEngineStoreColdProcess is the acceptance test for the persistence
// layer: a second engine ("cold process") pointed at the warm store
// directory answers every job from disk — zero preparations, zero
// pipeline simulations — with outcomes byte-identical to the computed
// ones.
func TestEngineStoreColdProcess(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()
	ctx := context.Background()

	warm := New(2).WithStore(openStore(t, dir))
	warmOuts, err := warm.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	// Each job writes through its outcome plus its captured trace as a
	// segment of two records — one chunk (these captures fit in a single
	// chunk) and the manifest naming it; the four jobs are four distinct
	// trace identities here.
	if ws.StoreHits != 0 || ws.StoreMisses != int64(len(jobs)) || ws.StorePuts != 3*int64(len(jobs)) {
		t.Fatalf("warm run store counters: %+v", ws)
	}
	if ws.PipelineSims() != int64(len(jobs)) {
		t.Fatalf("warm run executed %d pipeline sims, want %d", ws.PipelineSims(), len(jobs))
	}
	if ws.TraceCaptures != int64(len(jobs)) || ws.TraceStoreHits != 0 {
		t.Fatalf("warm run trace counters: %+v", ws)
	}
	if n := warm.Store().Len(); n != 2*len(jobs) {
		t.Fatalf("warm run left %d store files, want an entry and a segment a job", n)
	}

	// Cold process: fresh engine, fresh store handle, same directory.
	cold := New(2).WithStore(openStore(t, dir))
	coldOuts, err := cold.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if cs.StoreHits != int64(len(jobs)) || cs.StoreMisses != 0 {
		t.Fatalf("cold run not 100%% store hits: %+v", cs)
	}
	if cs.PipelineSims() != 0 {
		t.Fatalf("cold run executed %d pipeline simulations, want 0", cs.PipelineSims())
	}
	if cs.PrepareRuns != 0 {
		t.Fatalf("cold run prepared %d benchmarks, want 0 (store hits skip preparation)", cs.PrepareRuns)
	}
	if cs.TraceCaptures != 0 {
		t.Fatalf("cold run captured %d traces, want 0 (outcome hits skip capture)", cs.TraceCaptures)
	}
	for i := range jobs {
		a, err1 := EncodeOutcome(warmOuts[i])
		b, err2 := EncodeOutcome(coldOuts[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %d: store round-trip changed the outcome", i)
		}
	}
}

// TestEngineStoreCorruptionRecovers: a damaged entry is recomputed (and
// rewritten), not an error.
func TestEngineStoreCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()[:2]
	ctx := context.Background()

	warm := New(2).WithStore(openStore(t, dir))
	if _, err := warm.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}

	// Truncate every stored file. Each job persisted an outcome entry and a
	// trace segment.
	var damaged int
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if ext := filepath.Ext(p); err != nil || info.IsDir() || ext != store.EntryExt && ext != store.SegExt {
			return err
		}
		damaged++
		return os.Truncate(p, info.Size()/2)
	})
	if err != nil || damaged != 2*len(jobs) {
		t.Fatalf("damaged %d files (%v), want %d", damaged, err, 2*len(jobs))
	}

	cold := New(2).WithStore(openStore(t, dir))
	if _, err := cold.Run(ctx, jobs); err != nil {
		t.Fatalf("damaged store failed the run: %v", err)
	}
	cs := cold.Stats()
	if cs.StoreHits != 0 || cs.PipelineSims() != int64(len(jobs)) || cs.StorePuts != 3*int64(len(jobs)) {
		t.Fatalf("corruption recovery counters: %+v", cs)
	}
	if cs.TraceCaptures != int64(len(jobs)) || cs.TraceStoreHits != 0 {
		t.Fatalf("corruption recovery trace counters: %+v (damaged trace blobs must re-capture)", cs)
	}

	// And the rewritten entries serve the next process.
	third := New(2).WithStore(openStore(t, dir))
	if _, err := third.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if ts := third.Stats(); ts.StoreHits != int64(len(jobs)) {
		t.Fatalf("rewritten entries not served: %+v", ts)
	}
}

// TestLegacySelectionEntryIsRewritten: a mini-graph outcome stored with
// its whole selection under "selection", as outcomes once were, is a miss
// for a cold engine. The engine re-simulates the arm and overwrites the
// entry under the same key, and the next cold engine gets a hit.
func TestLegacySelectionEntryIsRewritten(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	job := storeJobs()[1]
	fresh, err := New(1).Simulate(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Selection == nil || len(fresh.Selection.Instances) == 0 {
		t.Fatalf("job %+v selected no instances", job)
	}
	keyBytes, err := EncodeSimKey(job.Key())
	if err != nil {
		t.Fatal(err)
	}
	legacy := twoStepSeal(t, legacyOutcomePayload{Result: fresh.Result, Selection: fresh.Selection})
	if err := openStore(t, dir).Put(keyBytes, legacy); err != nil {
		t.Fatal(err)
	}

	cold := New(1).WithStore(openStore(t, dir))
	out, err := cold.Simulate(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// One put for the outcome, two for the trace segment (chunk, manifest).
	if cs := cold.Stats(); cs.StoreHits != 0 || cs.StoreMisses != 1 || cs.PipelineSims() != 1 || cs.StorePuts != 3 {
		t.Fatalf("legacy entry was not a miss re-simulated and rewritten: %+v", cs)
	}
	want, err := EncodeOutcome(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := EncodeOutcome(out); !bytes.Equal(got, want) {
		t.Errorf("re-simulated outcome differs from the fresh one")
	}
	if data, ok := openStore(t, dir).Get(keyBytes); !ok || !bytes.Equal(data, want) {
		t.Errorf("entry under the key was not overwritten with the new shape: %s", data)
	}

	second := New(1).WithStore(openStore(t, dir))
	out, err = second.Simulate(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if ss := second.Stats(); ss.StoreHits != 1 || ss.PipelineSims() != 0 {
		t.Fatalf("rewritten entry not served: %+v", ss)
	}
	if got, _ := EncodeOutcome(out); !bytes.Equal(got, want) {
		t.Errorf("stored outcome differs from the fresh one")
	}
}

// TestEngineStoreKeyCanonicalization: cosmetically different jobs (renamed
// config) share one store entry, and the store key is the canonical
// encoding of the job key.
func TestEngineStoreKeyCanonicalization(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	job := storeJobs()[0]

	warm := New(1).WithStore(openStore(t, dir))
	if _, err := warm.Simulate(ctx, job); err != nil {
		t.Fatal(err)
	}

	renamed := job
	renamed.Config.Name = "same-machine-different-label"
	cold := New(1).WithStore(openStore(t, dir))
	if _, err := cold.Simulate(ctx, renamed); err != nil {
		t.Fatal(err)
	}
	if cs := cold.Stats(); cs.StoreHits != 1 {
		t.Fatalf("renamed config missed the store: %+v", cs)
	}

	// The entry on disk is addressed by the canonical key encoding.
	st := openStore(t, dir)
	keyBytes, err := EncodeSimKey(job.Key())
	if err != nil {
		t.Fatal(err)
	}
	data, ok := st.Get(keyBytes)
	if !ok {
		t.Fatal("canonical key not present in store")
	}
	if _, err := DecodeOutcome(data); err != nil {
		t.Fatalf("stored payload does not decode: %v", err)
	}
}

// segmentBytes returns the size of the segment job's trace is stored as,
// published at the test chunk geometry into an unbounded store.
func segmentBytes(t *testing.T, job SimJob) int64 {
	t.Helper()
	dir := t.TempDir()
	e := New(1).WithStore(openStore(t, dir)).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(testChunkWindow)
	if _, err := e.Simulate(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	var segs []int64
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && filepath.Ext(p) == store.SegExt {
			segs = append(segs, info.Size())
		}
		return nil
	})
	if len(segs) != 1 {
		t.Fatalf("job stored %d segments, want 1", len(segs))
	}
	return segs[0]
}

// TestOversizedTraceRefusedByStore: a trace larger than the store's budget
// is refused as the unit it is stored as — one RejectedPuts, however many
// chunks it has and however small each is — rather than admitted chunk by
// chunk until it has evicted the whole store, its own head included. The
// trace is captured once and stays resident, under either replay regime;
// the much smaller outcome entry still persists, nothing is evicted, no
// staging file is left, and a cold engine answers from the outcome without
// recapturing. The budget is half the size the trace's segment measures
// in an unbounded store (sha's ~5 KB static table in the manifest plus the
// rows), so no change to how large a trace is stored can make it fit.
func TestOversizedTraceRefusedByStore(t *testing.T) {
	ctx := context.Background()
	pk := PrepareKey{Bench: "sha", Input: workload.InputTrain}
	base := uarch.Baseline()
	base.MaxRecords = 3000
	job := Baseline(pk, base)
	ref, err := New(2).Simulate(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// The trace's segment is twice what the budget holds.
	budget := segmentBytes(t, job) / 2
	for _, tc := range []struct {
		name   string
		window int
	}{
		{"resident", 0},
		{"bounded window", testChunkWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{MaxBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			warm := New(2).WithStore(st).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(tc.window)
			out, err := warm.Simulate(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if out.Result.Cycles != ref.Result.Cycles {
				t.Errorf("outcome diverged: %d vs %d cycles", out.Result.Cycles, ref.Result.Cycles)
			}
			ss := st.Stats()
			if ss.RejectedPuts != 1 || ss.Evictions != 0 {
				t.Errorf("want the trace refused once and nothing evicted: %+v", ss)
			}
			if ss.Entries != 1 {
				t.Errorf("want the outcome entry alone in the store: %+v", ss)
			}
			if ws := warm.Stats(); ws.TraceCaptures != 1 || ws.StorePuts == 0 || ws.TraceResidentBytes == 0 {
				t.Errorf("warm engine stats %+v, want 1 capture held resident", ws)
			}
			filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() && filepath.Ext(p) != store.EntryExt {
					t.Errorf("refused trace left %s behind", filepath.Base(p))
				}
				return nil
			})

			// Cold process: outcome answered from disk, no pipeline run.
			cold := New(2).WithStore(openStore(t, dir))
			out2, err := cold.Simulate(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if es := cold.Stats(); es.StoreHits != 1 || es.PipelineSims() != 0 {
				t.Errorf("cold engine stats %+v", es)
			}
			if out.Result.Cycles != out2.Result.Cycles {
				t.Errorf("cold outcome diverged: %d vs %d cycles", out.Result.Cycles, out2.Result.Cycles)
			}
		})
	}
}
