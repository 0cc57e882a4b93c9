// Trace golden-invariance tests: the engine's capture-once/replay-many
// replay must be observationally indistinguishable from live step-by-step
// emulation of the same binary (uarch.New, outside any engine). The tests
// run real arms both ways and diff the encoded outcomes byte-for-byte — the
// strongest statement that timing is independent of how records are
// delivered.
package minigraph_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/experiments"
	"minigraph/internal/rewrite"
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

// fig6Jobs are Figure 6's arms on bench: the baseline machine, then the
// integer and integer-memory rewrites, each without and with collapsing
// ALU pipelines. The two machines over each rewrite replay one binary's
// trace.
func fig6Jobs(bench string) []sim.SimJob {
	o := experiments.DefaultOptions()
	pk := sim.PrepareKey{Bench: bench, Input: workload.InputTrain}
	jobs := []sim.SimJob{sim.Baseline(pk, uarch.Baseline())}
	for _, intMem := range []bool{false, true} {
		for _, collapse := range []bool{false, true} {
			pol := core.DefaultPolicy()
			pol.MaxSize, pol.AllowMem = o.MaxSize, intMem
			cfg := uarch.MiniGraph(intMem)
			cfg.Collapse = collapse
			jobs = append(jobs, sim.SimJob{Prepare: pk, Policy: pol, Entries: o.MGTEntries, Config: cfg})
		}
	}
	return jobs
}

// liveOutcome runs job by live step-by-step emulation, with no engine: it
// rewrites the prepared program under the job's extraction axes (a
// baseline job keeps the original) and times that binary with uarch.New
// under the job's canonical machine, reporting the selection an engine
// reports.
func liveOutcome(ctx context.Context, pr *sim.Prepared, job sim.SimJob) (*sim.Outcome, error) {
	key := job.Key()
	prog, out := pr.Prog, &sim.Outcome{}
	var mgt *core.MGT
	if !key.Baseline {
		out.Selection = core.Extract(pr.CFG, pr.Live, pr.Prof, key.Policy, key.Entries)
		rw, err := rewrite.Rewrite(pr.Prog, out.Selection, key.Compress)
		if err != nil {
			return nil, err
		}
		prog, mgt = rw.Prog, core.NewMGT(rw.Templates, sim.ExecParams(key.Config))
	}
	res, err := uarch.New(key.Config, prog, mgt).Run(ctx)
	if err != nil {
		return nil, err
	}
	out.Result = res
	return out, nil
}

// TestReplayMatchesLiveStream runs Figure 6's arms on one small benchmark
// through an engine, which captures each binary once and replays it, and
// requires every encoded outcome to be byte-identical to live emulation of
// the same binary. The arms cover the unrewritten and the rewritten
// capture paths, and machines that share one binary's trace.
func TestReplayMatchesLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	jobs := fig6Jobs("sha")
	eng := sim.New(0)
	outs, err := eng.Run(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Prepare(t.Context(), jobs[0].Prepare)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		live, err := liveOutcome(t.Context(), pr, job)
		if err != nil {
			t.Fatal(err)
		}
		liveEnc, err := sim.EncodeOutcome(live)
		if err != nil {
			t.Fatal(err)
		}
		replayEnc, err := sim.EncodeOutcome(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveEnc, replayEnc) {
			t.Errorf("%s: live and replay outcomes differ (%d vs %d bytes), first divergence near byte %d",
				job.Config.Name, len(liveEnc), len(replayEnc), firstDiff(liveEnc, replayEnc))
		}
	}
	if st := eng.Stats(); st.TraceCaptures != 3 {
		t.Errorf("engine captured %d traces, want 3 (the baseline binary and two rewrites)", st.TraceCaptures)
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
