package uarch_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"minigraph/internal/uarch"
)

// waitingArm is the arm that skips the most: mcf's pointer chase behind a
// 300-cycle DRAM on the small-register mini-graph machine.
func waitingArm(t testing.TB) (*binary, uarch.Config) {
	_, mg := binariesOf(t, "mcf")
	cfg := uarch.MiniGraph(true)
	fixturePoints[1].apply(&cfg)
	return mg, cfg
}

// TestFinishedResultReleasesPipeline: a Result is all that outlives a run.
// The engine memoizes one per arm for its lifetime, so a Result that kept
// its Pipeline alive would keep the cache slabs, the event wheel, the trace
// reader and — through the reader — the whole trace.
func TestFinishedResultReleasesPipeline(t *testing.T) {
	base, _ := binariesOf(t, "sha")
	cfg := uarch.Baseline()
	cfg.MaxRecords = 20_000
	var collected atomic.Bool
	res := func() *uarch.Result {
		p := base.pipeline(cfg)
		runtime.AddCleanup(p, func(*atomic.Bool) { collected.Store(true) }, &collected)
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
	}
	if !collected.Load() {
		t.Error("the Pipeline is still reachable while only its Result is held")
	}
	runtime.KeepAlive(res)
}

// TestRunCyclesQuantaInvisible: however a gang scheduler slices a run into
// RunCycles quanta — one cycle at a time, a quantum that never lines up
// with anything, or one longer than most skips — the machine ends in the
// state one uninterrupted Run leaves.
func TestRunCyclesQuantaInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	ctx := context.Background()
	bin, cfg := waitingArm(t)
	want, err := bin.pipeline(cfg).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []int64{1, 7, 1 << 20} {
		p := bin.pipeline(cfg)
		var calls int64
		for done := false; !done; calls++ {
			if done, err = p.RunCycles(ctx, quantum); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("quantum %d:\n got %+v\nwant %+v", quantum, *got, *want)
		}
		// A quantum is a budget of simulated cycles, skipped ones included.
		if min := (want.Cycles + quantum - 1) / quantum; calls < min {
			t.Errorf("quantum %d: %d cycles took %d calls, at least %d needed", quantum, want.Cycles, calls, min)
		}
	}
}

// pollCtx is a context cancelled by being asked: Err reports nil for the
// first live polls and context.Canceled from then on, which makes "how soon
// after cancellation does the run stop" a count instead of a race.
type pollCtx struct {
	context.Context
	polls, live int64
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestCancellationPollInterval: the run polls its context once per 4096
// simulated cycles — at every such boundary, whether a step lands on it or
// a skip crosses it — and stops at the first poll that reports an error.
func TestCancellationPollInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	bin, cfg := waitingArm(t)
	free := &pollCtx{Context: context.Background(), live: 1 << 62}
	res, err := bin.pipeline(cfg).Run(free)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Cycles >> 12; free.polls != want {
		t.Errorf("%d cycles polled the context %d times, want %d", res.Cycles, free.polls, want)
	}

	cut := &pollCtx{Context: context.Background(), live: 100}
	if _, err := bin.pipeline(cfg).Run(cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if cut.polls != cut.live+1 {
		t.Errorf("run polled %d times, want to stop at poll %d", cut.polls, cut.live+1)
	}
}
