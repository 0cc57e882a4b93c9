// Trace golden-invariance tests: the engine's capture-once/replay-many
// mode must be observationally indistinguishable from live step-by-step
// emulation. These tests run real experiments both ways and diff the
// structured reports byte-for-byte — the strongest statement that timing
// is independent of how records are delivered.
package minigraph_test

import (
	"bytes"
	"reflect"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/experiments"
	"minigraph/internal/sim"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// sweepJobs builds one machine-configuration sweep over a single rewritten
// binary: every arm shares one trace identity (same bench, policy, entries
// and record limit) and differs only in DRAM latency.
func sweepJobs(memLats []int) []sim.SimJob {
	pk := sim.PrepareKey{Bench: "sha", Input: workload.InputTrain}
	jobs := make([]sim.SimJob, 0, len(memLats))
	for _, ml := range memLats {
		cfg := uarch.MiniGraph(true)
		cfg.MemLatency = ml
		cfg.MaxRecords = 20_000
		jobs = append(jobs, sim.SimJob{
			Prepare: pk,
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  cfg,
		})
	}
	return jobs
}

// TestReplayMatchesLiveStream runs one full experiment twice on one small
// benchmark — once through live emulation, once through trace replay — and
// requires byte-identical reports. fig6 covers baseline and mini-graph
// arms, integer and integer-memory policies, and collapsing variants, so
// both the unrewritten and rewritten capture paths are exercised.
func TestReplayMatchesLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	run := func(live bool) []byte {
		o := subsetOpts()
		o.Benchmarks = []string{"sha"}
		o.Engine = sim.New(0).WithLiveStream(live)
		a, err := experiments.Run("fig6", o)
		if err != nil {
			t.Fatal(err)
		}
		data, err := a.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	liveRep := run(true)
	replayRep := run(false)
	if !bytes.Equal(liveRep, replayRep) {
		t.Errorf("live and replay reports differ (%d vs %d bytes), first divergence near byte %d",
			len(liveRep), len(replayRep), firstDiff(liveRep, replayRep))
	}
}

// TestTraceCacheEviction: the in-memory trace cache is byte-bounded. With
// a tiny budget every new binary evicts the previous one's trace, so a
// returning binary re-captures instead of replay-hitting — trading time
// for bounded memory in long-lived services. The cache holds binaries, so
// the two variants must rewrite sha into two different binaries: MaxSize
// 2 and 4 select different mini-graphs (checked below), where MGTs of 256
// and 512 entries would select the same ones and share a trace.
func TestTraceCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	eng := sim.New(0).WithTraceCacheBytes(1)
	templates := make(map[int][]*core.Template)
	run := func(maxSize, memLat int) {
		jobs := sweepJobs([]int{memLat})
		jobs[0].Policy.MaxSize = maxSize
		outs, err := eng.Run(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		templates[maxSize] = outs[0].Selection.Templates
	}
	run(4, 0) // capture A
	run(2, 0) // capture B, evicts A
	if reflect.DeepEqual(templates[4], templates[2]) {
		t.Fatal("MaxSize 4 and 2 select the same mini-graphs: one binary, nothing to evict between the variants")
	}
	run(4, 5) // new config over A: the trace was evicted, so re-capture
	if st := eng.Stats(); st.TraceCaptures != 3 {
		t.Fatalf("captures %d, want 3 (1-byte budget must evict between variants): %+v", st.TraceCaptures, st)
	}

	// A real budget keeps the working set: same sequence, zero re-captures.
	roomy := sim.New(0)
	eng = roomy
	run(4, 0)
	run(2, 0)
	run(4, 5)
	if st := roomy.Stats(); st.TraceCaptures != 2 {
		t.Fatalf("captures %d, want 2 under the default budget: %+v", st.TraceCaptures, st)
	}
}

// TestSweepSingleCapture pins the tentpole's economics: a multi-arm
// machine-configuration sweep over one rewritten binary performs exactly
// one functional emulation, and a second sweep with fresh configurations
// performs zero.
func TestSweepSingleCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	eng := sim.New(0)
	outs, err := eng.Run(t.Context(), sweepJobs([]int{0, 120, 140, 160}))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.TraceCaptures != 1 {
		t.Errorf("first sweep captured %d traces, want 1 (per-prepare emulation must happen exactly once)", st.TraceCaptures)
	}
	if st.TraceReplayHits != int64(len(outs)-1) {
		t.Errorf("first sweep replay hits %d, want %d", st.TraceReplayHits, len(outs)-1)
	}

	// Second sweep: new configurations (new SimKeys — the outcome cache
	// cannot serve them) over the same binary. Zero captures.
	if _, err := eng.Run(t.Context(), sweepJobs([]int{200, 240})); err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.TraceCaptures != st.TraceCaptures {
		t.Errorf("second sweep captured %d new traces, want 0", st2.TraceCaptures-st.TraceCaptures)
	}
	if st2.TraceReplayHits <= st.TraceReplayHits {
		t.Errorf("second sweep produced no replay hits: %+v", st2)
	}
}
