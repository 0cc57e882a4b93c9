package experiments

import (
	"slices"
	"sync/atomic"

	"minigraph/internal/core"
	"minigraph/internal/sim"
	"minigraph/internal/stats"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// An arm is one named point of a sweep: the simulation job it runs for a
// benchmark.
type arm struct {
	name string
	job  func(*workload.Benchmark) sim.SimJob
}

// baseArm runs the unmodified benchmark on cfg.
func baseArm(name string, cfg uarch.Config) arm {
	return arm{name, func(b *workload.Benchmark) sim.SimJob {
		return sim.Baseline(prepKey(b, workload.InputTrain), cfg)
	}}
}

// mgArm extracts the benchmark's mini-graphs under pol into an
// entries-entry MGT, rewrites it (compress: compacted text instead of nop
// fill) and runs it on cfg.
func mgArm(name string, pol core.Policy, entries int, cfg uarch.Config, compress bool) arm {
	return arm{name, func(b *workload.Benchmark) sim.SimJob {
		return sim.SimJob{Prepare: prepKey(b, workload.InputTrain), Policy: pol, Entries: entries, Compress: compress, Config: cfg}
	}}
}

// reference is the 6-wide baseline arm under the options' front-end
// overrides (default runs share its key across every experiment).
func (o *Options) reference(name string) arm {
	return baseArm(name, o.applyFrontend(uarch.Baseline()))
}

// armNames lists the names of arms, in order.
func armNames(arms []arm) []string {
	out := make([]string, len(arms))
	for i, a := range arms {
		out[i] = a.name
	}
	return out
}

// sweep runs every arm on every benchmark as one engine batch, benchmark
// by benchmark in arm order, and returns the outcomes indexed
// [bench][arm]. With logging on, each finished job prints
// "<id>: <bench> <arm> done".
func (o *Options) sweep(id string, benches []*workload.Benchmark, arms []arm) ([][]*sim.Outcome, error) {
	jobs := make([]sim.SimJob, 0, len(benches)*len(arms))
	for _, b := range benches {
		for _, a := range arms {
			jobs = append(jobs, a.job(b))
		}
	}
	var onDone func(int, *sim.Outcome)
	if o.Log != nil {
		var done atomic.Int64
		onDone = func(i int, _ *sim.Outcome) {
			o.logf("%s: %s %s done (%d/%d)", id, benches[i/len(arms)].Name, arms[i%len(arms)].name, done.Add(1), len(jobs))
		}
	}
	outs, err := o.engine().RunEach(o.ctx(), jobs, onDone)
	if err != nil {
		return nil, err
	}
	grid := make([][]*sim.Outcome, len(benches))
	for i := range grid {
		grid[i] = outs[i*len(arms) : (i+1)*len(arms)]
	}
	return grid, nil
}

// speedups returns, per benchmark, the speedup of every arm after the
// first over the first (the reference).
func speedups(outs [][]*sim.Outcome) [][]float64 {
	vals := make([][]float64, len(outs))
	for i, row := range outs {
		for _, out := range row[1:] {
			vals[i] = append(vals[i], uarch.Speedup(row[0].Result, out.Result))
		}
	}
	return vals
}

// newArtifact starts a one-table artifact whose report has the table's
// title.
func newArtifact(id, title string, header ...string) *Artifact {
	return &Artifact{ID: id, Tables: []*stats.Table{stats.NewTable(title, header...)}, Report: sim.NewReport(id, title)}
}

// benchRow writes benchmark b's value of each arm: one table row of the
// lead cells, the values and the tail cells, and one report row per arm.
func (a *Artifact) benchRow(b *workload.Benchmark, metric string, arms []string, vals []float64, lead []string, tail ...string) {
	cells := lead
	for k, v := range vals {
		cells = append(cells, stats.SpeedupStr(v))
		a.Report.Add(sim.Row{Bench: b.Name, Suite: b.Suite, Arm: arms[k], Metric: metric, Value: v})
	}
	a.Tables[0].AddRow(append(cells, tail...)...)
}

// suitesOf lists, in canonical order, the suites with a benchmark in
// benches. A suite the selection left out has no mean to report: the mean
// of nothing would read 0.
func suitesOf(benches []*workload.Benchmark) []string {
	var out []string
	for _, suite := range workload.Suites() {
		if slices.ContainsFunc(benches, func(b *workload.Benchmark) bool { return b.Suite == suite }) {
			out = append(out, suite)
		}
	}
	return out
}

// gmeanRows writes, per selected suite, each arm's geometric mean over the
// suite's benchmarks (vals is indexed [bench][arm]): one table row of
// "gmean:<suite>", blank empty cells, the means and a cell from each tail
// function of the means, and one report row per arm.
func (a *Artifact) gmeanRows(benches []*workload.Benchmark, metric string, arms []string, vals [][]float64, blank int, tail ...func([]float64) string) {
	for _, suite := range suitesOf(benches) {
		cells := append([]string{"gmean:" + suite}, make([]string, blank)...)
		means := make([]float64, len(arms))
		for k, name := range arms {
			var xs []float64
			for i, b := range benches {
				if b.Suite == suite {
					xs = append(xs, vals[i][k])
				}
			}
			means[k] = stats.GeoMean(xs)
			cells = append(cells, stats.SpeedupStr(means[k]))
			a.Report.Add(sim.Row{Suite: suite, Arm: name, Agg: "gmean", Metric: metric, Value: means[k]})
		}
		for _, f := range tail {
			cells = append(cells, f(means))
		}
		a.Tables[0].AddRow(cells...)
	}
}

// speedupFigure runs arms on benches and tabulates every arm's speedup
// over arm 0: one row per benchmark and one gmean row per suite. It is the
// whole of a figure that has no column of its own.
func (o *Options) speedupFigure(id, title string, benches []*workload.Benchmark, arms []arm) (*Artifact, error) {
	outs, err := o.sweep(id, benches, arms)
	if err != nil {
		return nil, err
	}
	names := armNames(arms[1:])
	vals := speedups(outs)
	a := newArtifact(id, title, append([]string{"bench"}, names...)...)
	for i, b := range benches {
		a.benchRow(b, "speedup", names, vals[i], []string{b.Name})
	}
	a.gmeanRows(benches, "speedup", names, vals, 0)
	return a, nil
}
