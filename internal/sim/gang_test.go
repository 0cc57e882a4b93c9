package sim

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"minigraph/internal/core"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

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

// gangSweepJobs is a multi-bench, multi-config sweep: every bench
// contributes one TraceKey group whose arms differ in machine config only
// (memory latency and collapsing), the configuration-sweep shape gang
// replay exists for.
func gangSweepJobs(maxRecords int64, benches ...string) []SimJob {
	var jobs []SimJob
	for _, bench := range benches {
		jobs = append(jobs, latencyArms(bench, maxRecords, 0, 140, 160)...)
		collapse := latencyArms(bench, maxRecords, 0)[0]
		collapse.Config.Collapse = true
		jobs = append(jobs, collapse)
	}
	return jobs
}

// gangEngine is the only kind of engine that gangs: replay bounded to a
// 2-chunk window over chunks spilled to a store. One worker, so the
// planner forms one maximal gang per trace group.
func gangEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return New(1).WithStore(openStore(t, dir)).
		WithTraceChunkRecords(testChunkRecords).
		WithTraceChunkWindow(testChunkWindow)
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

// TestGangSelection pins what selects gang replay: nothing the caller
// sets, only whether replay is window-bounded over a store. The same
// shared-trace sweep forms gangs on a bounded engine and on no other, with
// byte-identical outcomes everywhere — and a sweep the store can answer
// forms none either (an unbounded engine plans nothing, so a warm repeat
// costs store reads and not one preparation).
func TestGangSelection(t *testing.T) {
	ctx := context.Background()
	var jobs []SimJob
	for _, bench := range []string{"sha", "adpcm.enc"} {
		jobs = append(jobs, latencyArms(bench, 20_000, 0, 140, 160)...)
	}
	dir := t.TempDir()
	regimes := []struct {
		name      string
		eng       *Engine
		wantGangs int64
	}{
		{"no store", New(1), 0},
		{"store, window 0", New(1).WithStore(openStore(t, t.TempDir())), 0},
		{"store, window 2", gangEngine(t, dir), 2},
	}
	var want [][]byte
	for _, r := range regimes {
		outs, err := r.eng.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		st := r.eng.Stats()
		if st.GangsFormed != r.wantGangs {
			t.Errorf("%s: gangs formed %d, want %d", r.name, st.GangsFormed, r.wantGangs)
		}
		if (st.GangSharedRecords > 0) != (r.wantGangs > 0) {
			t.Errorf("%s: gang shared records %d with %d gangs", r.name, st.GangSharedRecords, st.GangsFormed)
		}
		got := encodedOutcomes(t, outs)
		if want == nil {
			want = got
			continue
		}
		for i := range jobs {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: arm %d outcome differs from the storeless engine's", r.name, i)
			}
		}
	}

	warm := New(1).WithStore(openStore(t, dir))
	outs, err := warm.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.GangsFormed != 0 || st.GangArms != 0 || st.PrepareRuns != 0 || st.PipelineSims() != 0 {
		t.Errorf("store-answered sweep: gangs=%d arms=%d prepares=%d pipeline sims=%d, want all 0",
			st.GangsFormed, st.GangArms, st.PrepareRuns, st.PipelineSims())
	}
	for i, got := range encodedOutcomes(t, outs) {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("store-answered arm %d differs from the computed outcome", i)
		}
	}
}

// TestGangMatchesSequential is the gang acceptance test: a multi-bench,
// multi-config sweep executed as gangs over spilled chunks must produce
// outcomes byte-identical (canonical EncodeOutcome bytes) to the same
// sweep executed arm-by-arm over resident traces — while a duplicate
// submission on one arm's key is canceled mid-sweep, which must perturb
// nothing.
func TestGangMatchesSequential(t *testing.T) {
	jobs := gangSweepJobs(60_000, "sha", "adpcm.enc")

	solo := New(1)
	wantOuts, err := solo.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := encodedOutcomes(t, wantOuts)
	if st := solo.Stats(); st.GangsFormed != 0 || st.GangArms != 0 {
		t.Fatalf("resident engine formed gangs: %+v", st)
	}

	gang := gangEngine(t, t.TempDir())
	// Mid-sweep per-arm cancellation: a concurrent duplicate Simulate on
	// one arm's key joins the in-flight gang call as a waiter and is then
	// canceled while the gang runs. Its cancellation must neither fail the
	// gang nor change any arm's bytes.
	dupCtx, cancelDup := context.WithCancel(context.Background())
	dupErr := make(chan error, 1)
	var dupOnce sync.Once
	gotOuts, err := gang.RunEach(context.Background(), jobs, func(i int, out *Outcome) {
		dupOnce.Do(func() {
			go func() {
				_, err := gang.Simulate(dupCtx, jobs[len(jobs)-1])
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
			t.Errorf("arm %d (%s @ mem%d): gang outcome differs from sequential",
				i, jobs[i].Prepare.Bench, jobs[i].Config.MemLatency)
		}
	}

	st := gang.Stats()
	if st.GangsFormed != 2 {
		t.Errorf("gangs formed %d, want 2 (one per bench)", st.GangsFormed)
	}
	if st.GangArms != int64(len(jobs)) {
		t.Errorf("gang arms %d, want %d", st.GangArms, len(jobs))
	}
	if st.GangSharedRecords == 0 {
		t.Error("no gang arm ever read a chunk another arm had faulted in")
	}
	if st.SimRuns != int64(len(jobs)) {
		t.Errorf("sim runs %d, want %d", st.SimRuns, len(jobs))
	}
	if st.TraceCaptures != 2 || st.TraceReplayHits != int64(len(jobs))-2 {
		t.Errorf("captures=%d replayHits=%d, want 2/%d", st.TraceCaptures, st.TraceReplayHits, len(jobs)-2)
	}
}

// TestGangMaxSizeSharedTrace runs a maximum-size gang — every arm of one
// TraceKey group, one worker, so the planner forms a single gang over one
// shared trace — and checks every arm against an independently computed
// solo outcome. CI's large-trace job runs this under -race: the
// single-goroutine gang interleave and the shared chunk window must be
// data-race-free against the engine's concurrent waiters.
func TestGangMaxSizeSharedTrace(t *testing.T) {
	jobs := latencyArms(testBench, 60_000, 0, 110, 120, 130, 140, 150, 160, 170)
	e := gangEngine(t, t.TempDir())
	outs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.GangsFormed != 1 || st.GangArms != int64(len(jobs)) {
		t.Fatalf("one max-size gang expected: formed=%d arms=%d", st.GangsFormed, st.GangArms)
	}
	if st.GangFallbackSolo != 0 {
		t.Errorf("fallback-to-solo %d, want 0", st.GangFallbackSolo)
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
			t.Errorf("arm %d (mem%d): gang outcome differs from solo", i, job.Config.MemLatency)
		}
	}
}

// TestGangFaultsEachChunkOnce pins the gang window's sizing: a gang's
// cursors share one chunk window that holds every chunk the gang's lag
// window can span, however small the engine's per-reader window, so the
// leading arm faults each chunk in once and no trailing arm faults it
// again — while the window stays within that many chunks of the widest
// rows, and the outcomes stay a resident engine's. A gang window of the
// engine's 2 chunks would make trailing arms re-fault at 256-row chunks.
func TestGangFaultsEachChunkOnce(t *testing.T) {
	const maxRecords = 60_000
	jobs := latencyArms(testBench, maxRecords, 0, 140, 160)
	want, err := New(1).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	e := gangEngine(t, t.TempDir())
	got, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.GangsFormed != 1 || st.GangArms != int64(len(jobs)) {
		t.Fatalf("one gang of %d arms expected: formed=%d arms=%d", len(jobs), st.GangsFormed, st.GangArms)
	}
	if chunks := int64((maxRecords + testChunkRecords - 1) / testChunkRecords); st.TraceChunkFaults != chunks || st.TraceChunkRecaptures != 0 {
		t.Errorf("gang faulted %d chunks (%d recaptures) of a %d-chunk trace, want each once and none",
			st.TraceChunkFaults, st.TraceChunkRecaptures, chunks)
	}
	lagChunks := (trace.DefaultGangWindow+testChunkRecords-1)/testChunkRecords + 1
	if bound := int64(lagChunks * testChunkRecords * (trace.MaxRecordBytes + 1)); st.TraceChunkWindowPeakBytes > bound {
		t.Errorf("gang window peaked at %d bytes, want at most %d (%d chunks of the widest rows)",
			st.TraceChunkWindowPeakBytes, bound, lagChunks)
	}
	ref := encodedOutcomes(t, want)
	for i, out := range encodedOutcomes(t, got) {
		if !bytes.Equal(out, ref[i]) {
			t.Errorf("arm %d (mem%d): gang outcome differs from the resident engine's", i, jobs[i].Config.MemLatency)
		}
	}
}

// TestGangSingletonFallback: a bounded engine's sweep whose trace groups
// are all singletons must take the independent Simulate path and count the
// fallbacks.
func TestGangSingletonFallback(t *testing.T) {
	jobs := []SimJob{baselineTestJob(), mgTestJob(4), mgTestJob(2)}
	e := gangEngine(t, t.TempDir())
	outs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out == nil || out.Result == nil {
			t.Fatalf("arm %d: no result", i)
		}
	}
	st := e.Stats()
	if st.GangsFormed != 0 || st.GangArms != 0 {
		t.Errorf("singleton sweep formed gangs: %+v", st)
	}
	if st.GangFallbackSolo != int64(len(jobs)) {
		t.Errorf("fallback-to-solo %d, want %d", st.GangFallbackSolo, len(jobs))
	}
}

// TestGangSplitArms pins the worker-partitioning rule: contiguous,
// near-equal chunks covering every arm exactly once.
func TestGangSplitArms(t *testing.T) {
	arms := make([]*gangMember, 7)
	for i := range arms {
		arms[i] = &gangMember{idx: i}
	}
	chunks := splitArms(arms, 3)
	if len(chunks) != 3 {
		t.Fatalf("chunks %d, want 3", len(chunks))
	}
	next := 0
	for _, c := range chunks {
		if len(c) < 2 {
			t.Errorf("chunk of %d arms; want >= 2", len(c))
		}
		for _, m := range c {
			if m.idx != next {
				t.Fatalf("non-contiguous partition: got idx %d, want %d", m.idx, next)
			}
			next++
		}
	}
	if next != len(arms) {
		t.Fatalf("partition covered %d arms, want %d", next, len(arms))
	}
}
