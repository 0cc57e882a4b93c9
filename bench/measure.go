package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
)

// env is what a workload's round runs in.
type env struct {
	ctx      context.Context
	cpus     int
	scale    int
	tmp      string // this run's scratch directory; rounds create and remove their own subdirectories
	repo     string
	portBase int
	tr       *tracer // non-nil only during a traced round
}

// sized scales a workload dimension down by -scale, never below min.
func (e *env) sized(n, min int) int {
	if n /= e.scale; n < min {
		return min
	}
	return n
}

// clients is the number of closed-loop serve_tier clients: one for every
// two cores. The tier's servers share the process, and so the cores, with
// the load generator; every arm of a sweep lands on one single-slot worker,
// so one in-flight sweep keeps one core simulating and leaves the next to
// the coordinator, the HTTP stacks and the collector. A client per core
// (the issue's sizing) makes request latency a function of which two
// sweeps happen to be in flight together — same worker: they queue;
// different workers: they overlap — and that pairing drifts with timing:
// identical rounds of one run then differ by 30 % on req_p50_ms.
func (e *env) clients() int {
	if n := e.cpus / 2; n > 1 {
		return n
	}
	return 1
}

// roundCounts are the layer counters of one round, summed over every
// engine and store the round used.
type roundCounts struct {
	Engine  sim.Stats
	Store   store.Stats
	Mallocs uint64        // heap allocations during the timed region
	Bytes   uint64        // bytes allocated during the timed region
	RunWall time.Duration // wall inside Engine.Run / experiments.Run / served sweeps
	PeakRSS int64         // the process's VmHWM at the end of the timed region
}

// addInt64s adds src's integer fields into dst's (both pointers to the
// same struct type): sim.Stats and store.Stats are flat counter bags.
func addInt64s(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if k := d.Field(i).Kind(); k == reflect.Int64 || k == reflect.Int {
			d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
		}
	}
}

func (c *roundCounts) addEngine(st sim.Stats) {
	peak := c.Engine.TraceChunkWindowPeakBytes
	addInt64s(&c.Engine, &st)
	// The window peak is a high-water mark, not a sum.
	if st.TraceChunkWindowPeakBytes > peak {
		peak = st.TraceChunkWindowPeakBytes
	}
	c.Engine.TraceChunkWindowPeakBytes = peak
}

func (c *roundCounts) addStore(s *store.Store) {
	st := s.Stats()
	addInt64s(&c.Store, &st)
}

// roundResult is one round: set-up, one timed region, verification.
type roundResult struct {
	Setup time.Duration
	Wall  time.Duration   // the timed region
	Arms  int             // correctly answered arms
	Reqs  []time.Duration // latency of each caller-visible call in the timed region
	checker
	Counts roundCounts
	Extra  map[string]float64 // workload-specific per-layer values
}

// layerPlan tells the layer replay which binaries and arms stand for a
// workload, and under which chunk geometry its engines run.
type layerPlan struct {
	Arms     []serve.JobSpec // every listed arm is simulated; their distinct binaries are walked first
	Geometry chunkGeometry
	Stored   bool // engines run with a store attached (outcomes and chunks are written through)
	Served   bool // arms cross HTTP as encoded outcomes
}

// runner is one of the five benchmark workloads, with its inputs already
// generated from the seed. Rounds are identical and independent: each
// builds everything it needs from nothing, so a round's counters repeat
// exactly and set-up is measured once per round.
type runner interface {
	round(e *env) (*roundResult, error)
	layerPlan() layerPlan
}

func newWorkload(name string, seed int64, e *env) (runner, error) {
	switch name {
	case "config_sweep":
		return newConfigSweep(seed, e), nil
	case "figures":
		return newFigures(e), nil
	case "store_stream":
		return newStoreStream(seed, e), nil
	case "store_warm":
		return newStoreWarm(seed, e), nil
	case "serve_tier":
		return newServeTier(seed, e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
}

// measure runs one workload for about o.seconds of timed regions and
// returns its metrics: end-to-end for an untraced run, per-layer for a
// traced one. notes are human-readable remarks for standard error.
func measure(ctx context.Context, o options) (*result, []string, error) {
	if o.cpus < 1 || o.scale < 1 || o.seconds <= 0 {
		return nil, nil, fmt.Errorf("-cpus, -scale and -seconds must be positive")
	}
	runtime.GOMAXPROCS(o.cpus)
	repo, err := findRepo(o.repo)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "mgbench-"+o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, cpus: o.cpus, scale: o.scale, tmp: tmp, repo: repo, portBase: o.portBase}
	w, err := newWorkload(o.workload, o.seed, e)
	if err != nil {
		return nil, nil, err
	}

	traced := o.trace != 0
	budget := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if traced {
		// Half the time goes to rounds (alternating spans on and off, so the
		// difference is the tracing overhead), the rest to the layer replay.
		// Round 0's spans are the ones kept; later traced rounds only feed
		// the overhead estimate.
		budget /= 2
		tr = newTracer()
	}
	firstStart := time.Since(processStart)
	var rounds []*roundResult
	var timed time.Duration
	// At least two rounds: a traced run compares a round with spans on to one
	// with spans off, and an untraced run whose first round just overran the
	// budget would otherwise report the cold round alone on a slow day and a
	// two-round median on a fast one.
	for i := 0; timed < budget || i < 2; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		e.tr = nil
		if traced && i == 0 {
			e.tr = tr
		} else if traced && i%2 == 0 {
			e.tr = newTracer()
		}
		r, err := w.round(e)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		timed += r.Wall
	}
	e.tr = nil

	res := &result{Metrics: make(map[string]metricValue)}
	var notes []string
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.failures {
			if len(notes) < 8 {
				notes = append(notes, fmt.Sprintf("round %d: FAILED %s", i, m))
			}
		}
		// Identical rounds must count identically; a drifting counter means
		// the run was not the deterministic work the bounds assume.
		if d := counterDiff(rounds[0], r); traced && d != "" {
			notes = append(notes, fmt.Sprintf("round %d: counters differ from round 0:%s", i, d))
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !traced {
		// Every number is a median over the run's rounds: rounds are the
		// same work, so the median discards the cold first round and any
		// round the host disturbed.
		var setups, rates, p50s, p95s []float64
		samples := 0
		for _, r := range rounds {
			setups = append(setups, r.Setup.Seconds())
			rates = append(rates, float64(r.Arms)/r.Wall.Seconds())
			p50s = append(p50s, percentile(millis(r.Reqs), 50))
			p95s = append(p95s, percentile(millis(r.Reqs), 95))
			samples = len(r.Reqs)
		}
		values := map[string]float64{
			"setup_s":    firstStart.Seconds() + median(setups),
			"arms_per_s": median(rates),
			"req_p50_ms": median(p50s),
			"req_p95_ms": median(p95s),
			// The first round alone: one cold round is what a one-shot sweep
			// costs in memory; later rounds reuse the heap, and how far it
			// grows then is GC timing. Read at the end of the timed region, so
			// the checks' own engines (a resident reference, the in-process
			// recomputation of served requests) are not in it.
			"peak_rss_mb": float64(rounds[0].Counts.PeakRSS) / (1 << 20),
		}
		for _, m := range endToEndSpecs {
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		notes = append(notes, fmt.Sprintf("%s: %d rounds, %.2fs timed, %d calls a round (%d beyond p95), fail_share %d/%d; round arms/s %.4g, p50 ms %.4g, p95 ms %.4g, set-up s %.3g",
			o.workload, len(rounds), timed.Seconds(), samples, samplesBeyond(samples, 95), res.Failed, res.Attempted, rates, p50s, p95s, setups))
		return res, notes, nil
	}

	lay, err := layerReplay(ctx, e, w.layerPlan(), o.seed, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("layer replay: %w", err)
	}
	var on, off []float64
	for i, r := range rounds {
		if i%2 == 0 {
			on = append(on, r.Wall.Seconds())
		} else {
			off = append(off, r.Wall.Seconds())
		}
	}
	spans := tr.snapshot()
	values := layerMetrics(e, w.layerPlan(), rounds[0], lay, spans)
	values["bench.trace_overhead_share"] = ratio(median(on), median(off)) - 1
	values["bench.spans"] = float64(len(spans))
	for _, m := range perLayerSpecs {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	out := o.traceOut
	if out == "" {
		out = filepath.Join(os.TempDir(), "mgbench-trace-"+o.workload+".json")
	}
	if err := writeChromeTrace(out, spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	notes = append(notes, fmt.Sprintf("%s: %d rounds (%d traced), %d spans written to %s", o.workload, len(rounds), len(on), len(spans), out))
	return res, notes, nil
}

// counterDiff names the engine and store counters on which two rounds
// disagree ("" when none): identical rounds should count identically.
func counterDiff(a, b *roundResult) string {
	var out string
	for _, pair := range [][2]any{{a.Counts.Engine, b.Counts.Engine}, {a.Counts.Store, b.Counts.Store}} {
		x, y := reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])
		for i := 0; i < x.NumField(); i++ {
			if x.Field(i).Int() != y.Field(i).Int() {
				out += fmt.Sprintf(" %s %d vs %d", x.Type().Field(i).Name, x.Field(i).Int(), y.Field(i).Int())
			}
		}
	}
	return out
}

// timedRegion runs fn as a round's timed region and returns its wall time.
// Traced rounds also record heap allocation across it; that costs two
// stop-the-world reads, which untraced rounds do not pay.
func (e *env) timedRegion(c *roundCounts, fn func()) time.Duration {
	var wall time.Duration
	run := func() {
		t := time.Now()
		fn()
		wall = time.Since(t)
	}
	if e.tr != nil {
		c.Mallocs, c.Bytes = memDelta(run)
	} else {
		run()
	}
	c.PeakRSS = peakRSSBytes()
	return wall
}

// memDelta measures heap allocation across fn.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
