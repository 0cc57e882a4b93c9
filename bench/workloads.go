package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"minigraph/internal/experiments"
	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/workload"
)

// Workload sizes are the issue's, divided by four (store_warm's pass count excepted) so that a round takes a
// few seconds and several rounds fit one run; binary sets, arm ratios and
// chunk geometry are the issue's own.
var (
	configSweepBenches = []string{"gzip", "mcf", "adpcm.enc", "mpeg2.dec", "reed.dec", "rtr", "sha", "blowfish"}
	storeStreamBenches = []string{"gzip", "mpeg2.dec", "drr", "rtr"} // the four largest traces
	serveTierBenches   = []string{"crafty", "parser", "adpcm.dec", "g721.enc", "reed.enc", "crc32", "dijkstra", "qsort"}
)

const (
	configSweepPoints = 6   // machine points per binary (arms per trace group)
	storeStreamPoints = 3   // machine points per binary per pass
	storeWarmPoints   = 6   // machine points per binary in the populated store
	storeWarmPasses   = 160 // store-answered sweeps per round
)

func resolveAll(specs []serve.JobSpec) ([]sim.SimJob, error) {
	jobs := make([]sim.SimJob, len(specs))
	for i, js := range specs {
		var err error
		if jobs[i], err = js.Resolve(); err != nil {
			return nil, fmt.Errorf("%s: %w", js.Arm, err)
		}
	}
	return jobs, nil
}

// ---- config_sweep ----

type configSweep struct{ specs []serve.JobSpec }

func newConfigSweep(seed int64, e *env) *configSweep {
	rng := rand.New(rand.NewSource(seed))
	return &configSweep{specs: sweepSpecs(configSweepBenches, points(rng, e.sized(configSweepPoints, 2)))}
}

func (w *configSweep) layerPlan() layerPlan { return layerPlan{Arms: w.specs} }

func (w *configSweep) round(e *env) (*roundResult, error) {
	r := &roundResult{}
	t0 := time.Now()
	refs, err := references(w.specs)
	if err != nil {
		return nil, err
	}
	jobs, err := resolveAll(w.specs)
	if err != nil {
		return nil, err
	}
	r.Setup = time.Since(t0)

	var eng *sim.Engine
	var outs []*sim.Outcome
	var runErr error
	r.Wall = e.timedRegion(&r.Counts, func() {
		eng = sim.New(e.cpus)
		id := e.tr.begin("sim.run", "config_sweep", 1, -1, -1)
		outs, runErr = eng.Run(e.ctx, jobs)
		e.tr.end(id)
	})
	r.Reqs = []time.Duration{r.Wall}
	r.Counts.RunWall = r.Wall
	r.Counts.addEngine(eng.Stats())
	r.Arms = r.checkOutcomes(refs, jobs, outs, runErr)
	return r, nil
}

// ---- figures ----

type figures struct {
	ids    []string
	golden map[string][]byte
	// refSpecs are arms the figures are known to simulate (the shared
	// baseline and fig6's int-mem machine of every subset binary): after a
	// pass they must be memo hits on the shared engine and retire what the
	// emulator executed.
	refSpecs []serve.JobSpec
}

func newFigures(e *env) *figures {
	w := &figures{ids: experiments.IDs(), golden: make(map[string][]byte)}
	w.ids = w.ids[:e.sized(len(w.ids), 5)]
	for _, b := range workload.BenchSubset() {
		w.refSpecs = append(w.refSpecs,
			serve.JobSpec{Arm: b + "@baseline", Bench: b, Baseline: true},
			serve.JobSpec{Arm: b + "@minigraph", Bench: b})
	}
	return w
}

func (w *figures) layerPlan() layerPlan { return layerPlan{Arms: w.refSpecs} }

func (w *figures) round(e *env) (*roundResult, error) {
	r := &roundResult{Extra: make(map[string]float64)}
	t0 := time.Now()
	for _, id := range w.ids {
		data, err := os.ReadFile(filepath.Join(e.repo, "testdata", "golden", id+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden fixture: %w", err)
		}
		w.golden[id] = data
	}
	refs, err := references(w.refSpecs)
	if err != nil {
		return nil, err
	}
	refJobs, err := resolveAll(w.refSpecs)
	if err != nil {
		return nil, err
	}
	r.Setup = time.Since(t0)

	// One cold engine shared by every figure, exactly as TestGoldenReports
	// and mgbench -exp all run them.
	eng := sim.New(e.cpus)
	var got map[string][]byte
	var errs map[string]error
	r.Wall = e.timedRegion(&r.Counts, func() {
		got, errs, r.Reqs = w.pass(e, eng, 1)
	})
	for _, d := range r.Reqs {
		r.Counts.RunWall += d
	}
	st := eng.Stats()
	r.Counts.addEngine(st)

	ok := true
	for _, id := range w.ids {
		// Check (a): byte-equal to the committed golden fixture.
		pass := errs[id] == nil && bytes.Equal(got[id], w.golden[id])
		if !r.op(1, pass, "figure %s: err=%v, %d bytes vs golden %d", id, errs[id], len(got[id]), len(w.golden[id])) {
			ok = false
		}
	}
	for i, job := range refJobs {
		out, err := eng.Simulate(e.ctx, job)
		if err == nil {
			err = checkOutcome(refs, job, out)
		}
		if !r.op(1, err == nil, "%s: %v", w.refSpecs[i].Arm, err) {
			ok = false
		}
	}
	if len(w.ids) == len(experiments.IDs()) {
		if after := eng.Stats(); !r.op(1, after.SimRuns == st.SimRuns, "reference arms were not memo hits: %d new simulations", after.SimRuns-st.SimRuns) {
			ok = false
		}
	}
	if ok {
		r.Arms = int(st.SimRuns + st.SimHits)
	}
	if e.tr != nil {
		// Every simulation is now memoized, so a second pass costs only what
		// the experiments package does itself: job building, extraction for
		// the coverage figures, report assembly.
		_, _, durs := w.pass(e, eng, 2)
		var self time.Duration
		for _, d := range durs {
			self += d
		}
		r.Extra["experiments.self_s"] = self.Seconds()
		// The figures' jobs cannot be listed from outside, so the number of
		// distinct trace keys is taken from a reference pass whose trace
		// cache never evicts: there, every capture is a first capture.
		unbounded := sim.New(e.cpus).WithTraceCacheBytes(1 << 40)
		w.pass(e, unbounded, 3)
		r.Extra["sim.capture_waste"] = ratio(float64(st.TraceCaptures), float64(unbounded.Stats().TraceCaptures))
	}
	return r, nil
}

// pass regenerates every figure on eng and returns the rendered reports,
// the per-figure errors and the per-figure wall times.
func (w *figures) pass(e *env, eng *sim.Engine, lane int) (map[string][]byte, map[string]error, []time.Duration) {
	o := experiments.DefaultOptions()
	o.Benchmarks = workload.BenchSubset()
	o.Context = e.ctx
	o.Engine = eng
	got := make(map[string][]byte)
	errs := make(map[string]error)
	var durs []time.Duration
	for _, id := range w.ids {
		t := time.Now()
		sp := e.tr.begin("experiments.run", id, lane, -1, -1)
		a, err := experiments.Run(id, o)
		if err == nil {
			var data []byte
			if data, err = a.Report.JSON(); err == nil {
				got[id] = append(data, '\n')
			}
		}
		e.tr.end(sp)
		errs[id] = err
		durs = append(durs, time.Since(t))
	}
	return got, errs, durs
}

// ---- store_stream ----

type storeStream struct {
	pass1, pass2 []serve.JobSpec
	resident     [][]byte // fully resident, store-less reference outcomes; computed once, rounds are identical
}

var storeStreamGeometry = chunkGeometry{Records: 4096, Window: 2}

func newStoreStream(seed int64, e *env) *storeStream {
	rng := rand.New(rand.NewSource(seed))
	n := e.sized(storeStreamPoints, 1)
	pts := points(rng, 2*n) // pass 2 sees machines pass 1 never ran
	return &storeStream{
		pass1: sweepSpecs(storeStreamBenches, pts[:n]),
		pass2: sweepSpecs(storeStreamBenches, pts[n:]),
	}
}

func (w *storeStream) all() []serve.JobSpec {
	return append(append([]serve.JobSpec(nil), w.pass1...), w.pass2...)
}

func (w *storeStream) layerPlan() layerPlan {
	return layerPlan{Arms: w.all(), Geometry: storeStreamGeometry, Stored: true}
}

func (w *storeStream) engine(e *env, st *store.Store) *sim.Engine {
	return sim.New(e.cpus).WithStore(st).
		WithTraceChunkRecords(storeStreamGeometry.Records).WithTraceChunkWindow(storeStreamGeometry.Window)
}

func (w *storeStream) round(e *env) (*roundResult, error) {
	r := &roundResult{Extra: make(map[string]float64)}
	t0 := time.Now()
	refs, err := references(w.pass1)
	if err != nil {
		return nil, err
	}
	jobs1, err := resolveAll(w.pass1)
	if err != nil {
		return nil, err
	}
	jobs2, err := resolveAll(w.pass2)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	r.Setup = time.Since(t0)

	var eng1, eng2 *sim.Engine
	var outs1, outs2 []*sim.Outcome
	var err1, err2 error
	var wall1, wall2 time.Duration
	r.Wall = e.timedRegion(&r.Counts, func() {
		// Pass 1, cold: captures spill chunk by chunk, replays fault them back.
		t := time.Now()
		eng1 = w.engine(e, st)
		id := e.tr.begin("sim.run", "pass1", 1, -1, -1)
		outs1, err1 = eng1.Run(e.ctx, jobs1)
		e.tr.end(id)
		wall1 = time.Since(t)
		// Pass 2, a fresh engine over the same store: new machines, so no
		// outcome hits, but every trace comes from the store.
		t = time.Now()
		eng2 = w.engine(e, st)
		id = e.tr.begin("sim.run", "pass2", 1, -1, -1)
		outs2, err2 = eng2.Run(e.ctx, jobs2)
		e.tr.end(id)
		wall2 = time.Since(t)
	})
	r.Reqs = []time.Duration{wall1, wall2}
	r.Counts.RunWall = wall1 + wall2
	r.Counts.addEngine(eng1.Stats())
	r.Counts.addEngine(eng2.Stats())
	r.Counts.addStore(st)
	r.Extra["sim.pass1_arms_per_s"] = float64(len(jobs1)) / wall1.Seconds()
	r.Extra["sim.pass2_arms_per_s"] = float64(len(jobs2)) / wall2.Seconds()

	good := r.checkOutcomes(refs, jobs1, outs1, err1) + r.checkOutcomes(refs, jobs2, outs2, err2)
	if err1 != nil || err2 != nil {
		return r, nil
	}
	s2 := eng2.Stats()
	zeroEmu := r.op(1, s2.TraceCaptures == 0 && s2.TraceStoreHits == int64(len(storeStreamBenches)),
		"pass 2 emulated: %d captures, %d trace-store hits", s2.TraceCaptures, s2.TraceStoreHits)

	// Check (c): streamed outcomes are byte-identical to a fully resident,
	// store-less engine's.
	if w.resident == nil {
		ref, err := sim.New(e.cpus).Run(e.ctx, append(append([]sim.SimJob(nil), jobs1...), jobs2...))
		if err != nil {
			return nil, fmt.Errorf("resident reference: %w", err)
		}
		if w.resident, err = encodeAll(ref); err != nil {
			return nil, err
		}
	}
	streamed, err := encodeAll(append(append([]*sim.Outcome(nil), outs1...), outs2...))
	if err != nil {
		return nil, err
	}
	diff := sameBytes(streamed, w.resident)
	same := r.op(1, diff < 0, "streamed outcome %d differs from the resident reference", diff)
	if zeroEmu && same {
		r.Arms = good
	}
	return r, nil
}

// ---- store_warm ----

type storeWarm struct {
	req serve.SweepRequest
}

func newStoreWarm(seed int64, e *env) *storeWarm {
	rng := rand.New(rand.NewSource(seed))
	specs := sweepSpecs(workload.BenchSubset(), points(rng, e.sized(storeWarmPoints, 2)))
	return &storeWarm{req: serve.SweepRequest{Name: "store_warm", Jobs: specs}}
}

func (w *storeWarm) layerPlan() layerPlan { return layerPlan{Arms: w.req.Jobs, Stored: true} }

func (w *storeWarm) round(e *env) (*roundResult, error) {
	r := &roundResult{}
	t0 := time.Now()
	refs, err := references(w.req.Jobs)
	if err != nil {
		return nil, err
	}
	jobs, err := resolveAll(w.req.Jobs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	// Populate: one cold store-backed sweep. Its outcomes and report are
	// what every warm pass must reproduce byte for byte.
	cold, err := sim.New(e.cpus).WithStore(st).Run(e.ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	coldBytes, err := encodeAll(cold)
	if err != nil {
		return nil, err
	}
	coldReport, err := serve.SweepReport(w.req, cold).JSON()
	if err != nil {
		return nil, err
	}
	// Populating wrote the captured traces too (~100 MB). Flush them now, so
	// their writeback does not land in the timed passes, which only read.
	syscall.Sync()
	r.Setup = time.Since(t0)

	passes := e.sized(storeWarmPasses, 3)
	reports := make([][]byte, passes)
	stats := make([]sim.Stats, passes)
	errs := make([]error, passes)
	var last []*sim.Outcome
	r.Wall = e.timedRegion(&r.Counts, func() {
		for p := 0; p < passes; p++ {
			t := time.Now()
			id := e.tr.begin("sim.run", fmt.Sprintf("pass%d", p), 1, -1, -1)
			eng := sim.New(e.cpus).WithStore(st)
			outs, err := eng.Run(e.ctx, jobs)
			if err == nil {
				reports[p], err = serve.SweepReport(w.req, outs).JSON()
			}
			e.tr.end(id)
			errs[p], stats[p], last = err, eng.Stats(), outs
			r.Reqs = append(r.Reqs, time.Since(t))
		}
	})
	r.Counts.RunWall = r.Wall
	r.Counts.addStore(st)

	for p := 0; p < passes; p++ {
		r.Counts.addEngine(stats[p])
		// Every arm must be a store hit, and warm must equal cold (check c).
		sims, same := stats[p].PipelineSims(), bytes.Equal(reports[p], coldReport)
		if r.op(len(jobs), errs[p] == nil && sims == 0 && same, "pass %d: err=%v, %d pipeline simulations, report equal=%v", p, errs[p], sims, same) {
			r.Arms += len(jobs)
		}
	}
	if errs[passes-1] == nil {
		good := r.checkOutcomes(refs, jobs, last, nil)
		warmBytes, err := encodeAll(last)
		if err != nil {
			return nil, err
		}
		diff := sameBytes(warmBytes, coldBytes)
		if !r.op(1, diff < 0, "warm outcome %d differs from the cold one", diff) || good != len(jobs) {
			r.Arms = 0
		}
	}
	return r, nil
}
