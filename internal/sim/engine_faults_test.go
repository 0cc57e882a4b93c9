package sim

import (
	"bytes"
	"context"
	"testing"

	"minigraph/internal/store"
	"minigraph/internal/store/storetest"
)

// TestEngineStoreFaultsReportInvariant is the recovery invariant for disk
// faults: an engine backed by a store injecting torn writes, bit flips,
// truncations, and transient I/O errors must produce sweep reports
// byte-identical to a fault-free run. Faults may cost recomputation
// (misses, re-captures, failed write-throughs) but can never change a
// result — the store's envelope checksum turns every corruption into a
// miss, and the engine recomputes on every miss.
func TestEngineStoreFaultsReportInvariant(t *testing.T) {
	ctx := context.Background()
	jobs := storeJobs()

	// Fault-free reference.
	ref := New(2).WithStore(openStore(t, t.TempDir()))
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

	// Heavy fault mix, repeated runs over one shared directory so later
	// runs read earlier runs' (possibly damaged) entries.
	fi := storetest.New(storetest.Config{
		TornWrite: 0.3, BitFlip: 0.3, Truncate: 0.2,
		WriteErr: 0.2, ReadErr: 0.2, Seed: 42,
	})
	dir := t.TempDir()
	for run := 0; run < 3; run++ {
		st, err := store.Open(dir, store.Options{MaxBytes: -1, FS: fi})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(2).WithStore(st)
		outs, err := eng.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("run %d under faults failed: %v", run, err)
		}
		for i, out := range outs {
			got, err := EncodeOutcome(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("run %d job %d: fault-injected report diverged from fault-free reference", run, i)
			}
		}
	}
	if fi.Counters().Total() == 0 {
		t.Fatal("fault mix injected nothing; the invariant was not exercised")
	}

	// A scrub after the chaos leaves only verifiable entries, and a clean
	// engine over the scrubbed store still reproduces the reference bytes.
	st, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Scrub()
	if rep.Errors != 0 {
		t.Errorf("scrub errors: %+v", rep)
	}
	clean := New(2).WithStore(st)
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
