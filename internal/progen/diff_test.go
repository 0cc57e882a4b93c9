package progen

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// corpusSize is the number of seeds the full (non-short) corpus run checks.
// Each seed covers 8 configuration arms under 3 delivery modes, so the full
// run is 24,000 pipeline simulations cross-checked against the emulator.
const corpusSize = 1000

// testEngines builds the oracle's engine set over a scratch store that
// lives as long as the calling test (spilled mode spills its chunks there).
// Engine state is keyed by benchmark name (which embeds the seed), so the
// concurrent seeds of one test never collide.
func testEngines(tb testing.TB) *Engines {
	eng, err := NewEngines(0, tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestDifferentialCorpus is the seeded differential oracle: every corpus
// seed must produce identical architectural state in the functional
// emulator and in every pipeline configuration under every delivery mode.
// Any divergence fails with the exact seed, arm and mode to reproduce it
// (mgdiff -seed N).
func TestDifferentialCorpus(t *testing.T) {
	n := int64(corpusSize)
	if testing.Short() {
		n = 60
	}
	eng := testEngines(t)
	ctx := context.Background()

	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for seed := int64(sh); seed < n; seed += int64(shards) {
				if err := DiffSeed(ctx, eng, seed, 0); err != nil {
					errs <- err
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	st := eng.byMode[ModeSpilled].Stats()
	t.Logf("spilled mode: %d chunk faults, %d chunk evictions, window peak %d bytes",
		st.TraceChunkFaults, st.TraceChunkEvictions, st.TraceChunkWindowPeakBytes)
	// The modes must have been the delivery paths they are named for: every
	// arm of every seed simulated on the spilled engine, streaming its
	// trace's chunks through a window that had to evict, and not one chunk
	// fault on the resident engine.
	if st.SimRuns != 8*n || st.TraceChunkFaults == 0 || st.TraceChunkEvictions == 0 {
		t.Errorf("spilled mode did not replay spilled chunks: %+v", st)
	}
	if st := eng.byMode[ModeReplay].Stats(); st.TraceChunkFaults != 0 {
		t.Errorf("replay mode was not over resident traces: %+v", st)
	}
}

// TestSeed681Regression pins the seed that exposed the cross-instance
// code-motion bug in selection (see core/interfere.go): two individually
// legal mini-graphs whose composed collapses inverted a register dependence,
// silently corrupting an address computation. The full oracle must stay
// clean on it.
func TestSeed681Regression(t *testing.T) {
	if err := DiffSeed(context.Background(), testEngines(t), 681, 0); err != nil {
		t.Fatal(err)
	}
}

// FuzzDifferential lets the fuzzer hunt for seeds whose generated programs
// diverge between the emulator and any pipeline configuration or delivery
// mode. Seed 681 is the crasher that exposed the cross-instance selection
// bug; the rest are ordinary passing seeds the fuzzer mutates from.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 681, 1337, 99991, -1, -424242} {
		f.Add(seed)
	}
	eng := testEngines(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := DiffSeed(context.Background(), eng, seed, 0); err != nil {
			t.Fatal(err)
		}
	})
}
