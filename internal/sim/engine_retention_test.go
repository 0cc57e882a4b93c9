package sim

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// TestOutcomesDoNotPinTraces: the engine memoizes every arm's Outcome for
// its lifetime, so whatever an Outcome keeps reachable is kept for ever. It
// must not be the arm's pipeline, and through it the trace: the byte budget
// of the trace cache is only a bound on trace memory if an evicted trace
// really is garbage once its replays have finished.
func TestOutcomesDoNotPinTraces(t *testing.T) {
	// 12 trace identities of 60,000 records, two machines per identity,
	// through a cache a quarter the size of all 12 traces.
	const maxRecords = 60_000
	var jobs []SimJob
	for _, bench := range workload.BenchSubset() {
		pk := PrepareKey{Bench: bench, Input: workload.InputTrain}
		for _, job := range []SimJob{
			Baseline(pk, uarch.Baseline()),
			{Prepare: pk, Policy: core.DefaultPolicy(), Entries: 512, Config: uarch.MiniGraph(true)},
			{Prepare: pk, Policy: core.IntegerPolicy(), Entries: 512, Config: uarch.MiniGraph(false)},
		} {
			job.Config.MaxRecords = maxRecords
			for _, memLat := range []int{80, 300} {
				job.Config.MemLatency = memLat
				jobs = append(jobs, job)
			}
		}
	}
	ctx := context.Background()
	// The budget is measured, not fixed, so no change to how large a trace
	// is held can turn it into one that evicts nothing.
	probe := New(2)
	if _, err := probe.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	budget := probe.Stats().TraceResidentBytes / 4
	probe = nil // collectable before the heap is measured

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	e := New(2).WithTraceCacheBytes(budget)
	// Capture the first identity alone and watch its trace; the eleven that
	// follow push it out of the cache.
	first, err := e.Simulate(ctx, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	watched, ok := e.memoTrace(jobs[0].Key().TraceKey())
	if !ok {
		t.Fatal("the first identity's trace is not cached")
	}
	var collected atomic.Bool
	runtime.AddCleanup(watched, func(*atomic.Bool) { collected.Store(true) }, &collected)

	outs, err := e.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached := e.memoTrace(jobs[0].Key().TraceKey()); cached {
		t.Fatal("the watched trace was never evicted; the test needs a smaller cache or more traces")
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := e.Stats()
	const slack = 16 << 20 // preparations, programs, selections, outcomes
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > st.TraceResidentBytes+slack {
		t.Errorf("heap grew by %d MiB over a run whose trace cache holds %d KiB (budget %d KiB, %d KiB captured in all)",
			grown>>20, st.TraceResidentBytes>>10, budget>>10, st.TraceBytes>>10)
	}
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
	}
	if !collected.Load() {
		t.Error("an evicted trace is still reachable after every replay of it has finished")
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(first)
	runtime.KeepAlive(outs)
}
