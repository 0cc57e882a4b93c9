package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"minigraph/internal/core"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// testBench is a small, fast kernel present in every suite subset.
const testBench = "sha"

func baselineTestJob() SimJob {
	return Baseline(PrepareKey{Bench: testBench, Input: workload.InputTrain}, uarch.Baseline())
}

func mgTestJob(maxSize int) SimJob {
	pol := core.DefaultPolicy()
	pol.MaxSize = maxSize
	return SimJob{
		Prepare: PrepareKey{Bench: testBench, Input: workload.InputTrain},
		Policy:  pol,
		Entries: 512,
		Config:  uarch.MiniGraph(true),
	}
}

// TestSingleFlightDedup submits the same baseline job from many goroutines
// and checks the engine ran it exactly once.
func TestSingleFlightDedup(t *testing.T) {
	e := New(8)
	const submitters = 12
	results := make([]*Outcome, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := e.Simulate(context.Background(), baselineTestJob())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.SimRuns != 1 {
		t.Errorf("baseline simulated %d times, want 1", st.SimRuns)
	}
	if st.SimHits != submitters-1 {
		t.Errorf("got %d cache hits, want %d", st.SimHits, submitters-1)
	}
	if st.PrepareRuns != 1 {
		t.Errorf("prepared %d times, want 1", st.PrepareRuns)
	}
	for i, out := range results {
		if out == nil || out.Result == nil {
			t.Fatalf("submitter %d got no result", i)
		}
		if out.Result.Cycles != results[0].Result.Cycles {
			t.Errorf("submitter %d saw %d cycles, submitter 0 saw %d", i, out.Result.Cycles, results[0].Result.Cycles)
		}
	}
}

// TestKeyCanonicalization checks that presentation-only and irrelevant job
// fields do not fragment the cache.
func TestKeyCanonicalization(t *testing.T) {
	// Config names are presentation-only.
	a := mgTestJob(4)
	b := mgTestJob(4)
	b.Config.Name = "renamed-but-identical"
	if a.Key() != b.Key() {
		t.Error("jobs differing only in Config.Name got different keys")
	}
	// Baseline jobs ignore the extraction axes entirely.
	p := Baseline(PrepareKey{Bench: testBench, Input: workload.InputTrain}, uarch.Baseline())
	q := p
	q.Policy = core.DefaultPolicy()
	q.Entries = 2048
	q.Compress = true
	if p.Key() != q.Key() {
		t.Error("baseline jobs differing only in extraction axes got different keys")
	}
	// Genuinely different policies must not collide.
	c := mgTestJob(8)
	if a.Key() == c.Key() {
		t.Error("different policies share a key")
	}
	// And the cache sees the canonical identity: a rename is a hit.
	e := New(4)
	if _, err := e.Simulate(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Simulate(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.SimRuns != 1 || st.SimHits != 1 {
		t.Errorf("renamed config: runs=%d hits=%d, want 1/1", st.SimRuns, st.SimHits)
	}
}

// TestContextCancellation cancels a sweep mid-flight and checks both that
// the engine aborts with the context's error and that the cancellation
// does not poison the cache for later submissions.
func TestContextCancellation(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the work can finish
	_, err := e.Run(ctx, []SimJob{baselineTestJob(), mgTestJob(4)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A fresh context retries cleanly: the canceled attempt must not have
	// cached its error.
	outs, err := e.Run(context.Background(), []SimJob{baselineTestJob(), mgTestJob(4)})
	if err != nil {
		t.Fatalf("post-cancel retry failed: %v", err)
	}
	for i, out := range outs {
		if out == nil || out.Result == nil || out.Result.Cycles == 0 {
			t.Errorf("job %d: empty result after retry", i)
		}
	}
}

// TestWaiterSurvivesLeaderCancellation checks that a caller with a live
// context is not failed by a concurrent caller's cancellation on the same
// key: when the canceled leader's entry is evicted, the live waiter takes
// over and computes the result itself.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	e := New(2)
	job := baselineTestJob()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Simulate(leaderCtx, job)
		leaderErr <- err
	}()
	// Give the leader time to start computing, join as a waiter, then
	// cancel the leader mid-flight.
	time.Sleep(20 * time.Millisecond)
	waiterErr := make(chan error, 1)
	go func() {
		out, err := e.Simulate(context.Background(), job)
		if err == nil && (out == nil || out.Result == nil) {
			err = errors.New("nil outcome")
		}
		waiterErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	if err := <-waiterErr; err != nil {
		t.Errorf("live waiter failed after leader cancellation: %v", err)
	}
	<-leaderErr // either canceled or finished first; both are fine
}

// TestDeterministicAcrossWorkerCounts runs the same job set on pools of
// different sizes and requires identical cycle counts.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := []SimJob{baselineTestJob(), mgTestJob(4), mgTestJob(2)}
	var reference []int64
	for _, workers := range []int{1, 8} {
		e := New(workers)
		outs, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		cycles := make([]int64, len(outs))
		for i, out := range outs {
			cycles[i] = out.Result.Cycles
		}
		if reference == nil {
			reference = cycles
			continue
		}
		for i := range cycles {
			if cycles[i] != reference[i] {
				t.Errorf("job %d: %d cycles with %d workers, %d with 1", i, cycles[i], workers, reference[i])
			}
		}
	}
}

// TestRunSurfacesRootCauseErrors checks that a failing job's error is
// reported (not masked by the cancellation it triggers in its siblings).
func TestRunSurfacesRootCauseErrors(t *testing.T) {
	e := New(2)
	bad := baselineTestJob()
	bad.Prepare.Bench = "no-such-benchmark"
	_, err := e.Run(context.Background(), []SimJob{bad, baselineTestJob(), mgTestJob(4)})
	if err == nil {
		t.Fatal("want error for unknown benchmark")
	}
	if !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("root cause missing from error: %v", err)
	}
	if errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("cancellation masked the root cause: %v", err)
	}
}

// TestEachCollectsErrors checks the bounded parallel-for helper joins every
// distinct failure.
func TestEachCollectsErrors(t *testing.T) {
	e := New(4)
	errA := errors.New("failure-a")
	err := e.Each(context.Background(), 3, func(ctx context.Context, i int) error {
		if i == 1 {
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want failure-a", err)
	}
}

// TestSimulateRefusesImpossibleConfig: a job carrying a degenerate machine
// fails its own simulation with a structured error — job specs arrive over
// HTTP, so this must never panic a worker. Gang planning must likewise
// skip the bad job (Run on the bounded engine exercises that path).
func TestSimulateRefusesImpossibleConfig(t *testing.T) {
	eng := New(1)
	bad := baselineTestJob()
	bad.Config.FetchWidth = 0
	if _, err := eng.Simulate(context.Background(), bad); err == nil {
		t.Fatal("zero-width config simulated clean")
	} else if !strings.Contains(err.Error(), "width") {
		t.Fatalf("error %q does not name the bad axis", err)
	}

	// In a sweep the bad arm fails alone with the same structured error,
	// under either replay regime.
	good := baselineTestJob()
	bad2 := good
	bad2.Config.ROBSize = -1
	for _, eng := range []*Engine{eng, gangEngine(t, t.TempDir())} {
		if _, err := eng.Run(context.Background(), []SimJob{good, bad2}); err == nil {
			t.Fatal("sweep with an impossible arm succeeded")
		} else if !strings.Contains(err.Error(), "window capacity") {
			t.Fatalf("sweep error %q does not name the bad axis", err)
		}
	}
}
