// Pipeline hot-path benchmarks: unlike bench_test.go, which times whole
// experiment reproductions (extraction + many arms through the engine),
// these isolate the cycle-accurate simulator itself — the per-cycle loop
// the allocation-free refactor targets. Run with
//
//	go test -run xxx -bench BenchmarkPipeline -benchmem .
//
// and compare cycles/s (simulated cycles per wall-clock second) and
// allocs/op across commits; add -cpuprofile cpu.out (or -memprofile) to
// profile exactly these loops. Measurements of record live in bench/.
//
// Golden-invariance rule: a perf refactor of the hot path must leave every
// testdata/golden/*.json fixture byte-identical (TestGoldenReports with no
// -update). Throughput may move; simulated results may not.
package minigraph_test

import (
	"context"
	"runtime"
	"testing"

	"minigraph"
	"minigraph/internal/sim"
	"minigraph/internal/workload"
)

func benchPipelineRun(b *testing.B, cfg minigraph.SimConfig, prog *minigraph.Program, mgt *minigraph.MGT) {
	b.Helper()
	b.ReportAllocs()
	var cycles, retired int64
	for i := 0; i < b.N; i++ {
		res, err := minigraph.Simulate(cfg, prog, mgt)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		retired += res.Retired
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(cycles)/sec, "cycles/s")
		b.ReportMetric(float64(retired)/sec/1e6, "Minst/s")
	}
}

// BenchmarkPipelineBaseline times the baseline machine over the benchmark
// subset (plain binaries, no mini-graph table).
func BenchmarkPipelineBaseline(b *testing.B) {
	for _, name := range workload.BenchSubset() {
		wl, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		prog := wl.Build(workload.InputTrain)
		b.Run(name, func(b *testing.B) {
			benchPipelineRun(b, minigraph.BaselineConfig(), prog, nil)
		})
	}
}

// sweepArms is the canonical multi-arm sweep: every subset benchmark's
// mini-graph binary timed under several DRAM latencies. All arms of one
// benchmark share a single trace identity, so the replay engine emulates
// each binary once and replays it everywhere — the configuration-sweep
// shape of the paper's figures.
var sweepMemLats = []int{0, 110, 120, 130, 140, 150, 160, 170}

func sweepArms() []minigraph.SimJob {
	var jobs []minigraph.SimJob
	for _, name := range workload.BenchSubset() {
		for _, ml := range sweepMemLats {
			cfg := minigraph.MiniGraphConfig(true)
			cfg.MemLatency = ml
			jobs = append(jobs, minigraph.SimJob{
				Prepare: minigraph.PrepareKey{Bench: name, Input: minigraph.InputTrain},
				Policy:  minigraph.DefaultPolicy(),
				Entries: 512,
				Config:  cfg,
			})
		}
	}
	return jobs
}

// prepareSubset prepares every subset benchmark on eng. Preparation
// (build, CFG, liveness, profile) is the same work however a sweep's arms
// are run and is memoized, so — like extraction in
// BenchmarkPipelineMiniGraph — the sweep benchmarks do it outside the
// measured region; the clock sees extraction, capture/emulation, and
// timing simulation.
func prepareSubset(b *testing.B, eng *minigraph.Engine) map[string]*sim.Prepared {
	b.Helper()
	preps := make(map[string]*sim.Prepared)
	for _, name := range workload.BenchSubset() {
		pr, err := eng.Prepare(context.Background(), minigraph.PrepareKey{Bench: name, Input: minigraph.InputTrain})
		if err != nil {
			b.Fatal(err)
		}
		preps[name] = pr
	}
	return preps
}

// reportArms reports arms per wall-clock second over b's iterations.
func reportArms(b *testing.B, arms int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(arms)*float64(b.N)/sec, "arms/s")
	}
}

// BenchmarkSweep times the multi-arm configuration sweep through the
// trace-replay engine, on a cold engine per iteration: one functional
// emulation per benchmark, N independent timed replays of the resident
// trace. (The two replay regimes are measured by bench/'s config_sweep and
// store_stream workloads.)
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	jobs := sweepArms()
	var captures, replays int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := minigraph.NewEngine(0)
		prepareSubset(b, eng)
		b.StartTimer()
		if _, err := eng.Run(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
		st := eng.Stats()
		captures += st.TraceCaptures
		replays += st.TraceReplayHits
	}
	reportArms(b, len(jobs))
	if b.N > 0 {
		b.ReportMetric(float64(captures)/float64(b.N), "captures/sweep")
		b.ReportMetric(float64(replays)/float64(b.N), "replays/sweep")
	}
}

// BenchmarkSweepLiveStream is the same sweep with live step-by-step
// emulation inside every arm — the pre-trace behavior, kept measurable so
// the replay speedup stays an observable number rather than a changelog
// claim. Each arm extracts and rewrites its own binary, then runs
// uarch.New over it (liveOutcome); at most GOMAXPROCS arms run at once, as
// on an engine's worker pool.
func BenchmarkSweepLiveStream(b *testing.B) {
	b.ReportAllocs()
	jobs := sweepArms()
	preps := prepareSubset(b, minigraph.NewEngine(0))
	limit := make(chan struct{}, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sim.FanOut(context.Background(), len(jobs), limit, func(ctx context.Context, j int) error {
			_, err := liveOutcome(ctx, preps[jobs[j].Prepare.Bench], jobs[j])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportArms(b, len(jobs))
}

// BenchmarkPipelineMiniGraph times the mini-graph machine over the subset,
// with extraction and rewriting done once outside the measured region: the
// handle sequencing, sliding-window and replay machinery all on the clock.
func BenchmarkPipelineMiniGraph(b *testing.B) {
	for _, name := range workload.BenchSubset() {
		wl, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		prog := wl.Build(workload.InputTrain)
		prof, err := minigraph.ProfileOf(prog, minigraph.ProfileLimit)
		if err != nil {
			b.Fatal(err)
		}
		rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			benchPipelineRun(b, minigraph.MiniGraphConfig(true), rw.Prog, rw.MGT)
		})
	}
}
