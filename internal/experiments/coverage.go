package experiments

import (
	"context"
	"fmt"

	"minigraph/internal/core"
	"minigraph/internal/sim"
	"minigraph/internal/stats"
	"minigraph/internal/workload"
)

// Fig5 sizes are the paper's sweep axes.
var (
	fig5Entries = []int{32, 128, 512, 2048}
	fig5Sizes   = []int{2, 3, 4, 8}
)

// CoverageCell is one Figure 5 measurement.
type CoverageCell struct {
	Bench    string
	Suite    string
	IntMem   bool
	Entries  int
	MaxSize  int
	Coverage float64
}

// Fig5 reproduces Figure 5 (top and middle): application-specific integer
// and integer-memory mini-graph coverage as a function of MGT entries and
// maximum mini-graph size. Coverage needs no timing simulation, so each
// arm is a preparation job plus in-process enumeration/selection on the
// engine's pool.
func Fig5(o Options) (*Artifact, []CoverageCell, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, nil, err
	}
	eng := o.engine()

	type arm struct {
		bench  *workload.Benchmark
		intMem bool
	}
	arms := make([]arm, 0, 2*len(benches))
	for _, b := range benches {
		arms = append(arms, arm{b, false}, arm{b, true})
	}
	results := make([][]CoverageCell, len(arms))
	err = eng.Each(o.ctx(), len(arms), func(ctx context.Context, i int) error {
		a := arms[i]
		pr, err := eng.Prepare(ctx, prepKey(a.bench, workload.InputTrain))
		if err != nil {
			return err
		}
		var cells []CoverageCell
		for _, size := range fig5Sizes {
			pol := policyFor(a.intMem, size)
			cands := core.Enumerate(pr.CFG, pr.Live, pol)
			for _, entries := range fig5Entries {
				sel := core.Select(pr.CFG, pr.Prof, cands, entries)
				cells = append(cells, CoverageCell{
					Bench: a.bench.Name, Suite: a.bench.Suite,
					IntMem: a.intMem, Entries: entries, MaxSize: size,
					Coverage: sel.Coverage(),
				})
			}
		}
		results[i] = cells
		o.logf("fig5: %s intmem=%v done", a.bench.Name, a.intMem)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var mu []CoverageCell
	for _, cells := range results {
		mu = append(mu, cells...)
	}

	rep := sim.NewReport("fig5", "Figure 5: coverage by MGT entries x max size")
	for _, c := range mu {
		kind := "int"
		if c.IntMem {
			kind = "intmem"
		}
		rep.Add(sim.Row{
			Bench: c.Bench, Suite: c.Suite,
			Arm:    fmt.Sprintf("%s/s%d/e%d", kind, c.MaxSize, c.Entries),
			Metric: "coverage", Value: c.Coverage,
		})
	}

	tables := make([]*stats.Table, 0, 2)
	for _, intMem := range []bool{false, true} {
		kind := "integer"
		if intMem {
			kind = "integer-memory"
		}
		t := stats.NewTable(
			fmt.Sprintf("Figure 5 (%s): coverage by MGT entries x max size", kind),
			append([]string{"bench", "suite"}, headerCols()...)...)
		for _, b := range benches {
			row := []string{b.Name, b.Suite}
			for _, size := range fig5Sizes {
				for _, entries := range fig5Entries {
					row = append(row, stats.Pct(findCell(mu, b.Name, intMem, entries, size)))
				}
			}
			t.AddRow(row...)
		}
		// Suite means at the paper's headline point (512 entries, size<=4)
		// and over the full sweep.
		for _, suite := range suitesOf(benches) {
			row := []string{"mean:" + suite, ""}
			for _, size := range fig5Sizes {
				for _, entries := range fig5Entries {
					var xs []float64
					for _, c := range mu {
						if c.Suite == suite && c.IntMem == intMem && c.Entries == entries && c.MaxSize == size {
							xs = append(xs, c.Coverage)
						}
					}
					row = append(row, stats.Pct(stats.Mean(xs)))
				}
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return &Artifact{ID: "fig5", Tables: tables, Report: rep}, mu, nil
}

func headerCols() []string {
	var cols []string
	for _, size := range fig5Sizes {
		for _, entries := range fig5Entries {
			cols = append(cols, fmt.Sprintf("s%d/e%d", size, entries))
		}
	}
	return cols
}

func findCell(cells []CoverageCell, bench string, intMem bool, entries, size int) float64 {
	for _, c := range cells {
		if c.Bench == bench && c.IntMem == intMem && c.Entries == entries && c.MaxSize == size {
			return c.Coverage
		}
	}
	return 0
}

// Fig5Domain reproduces Figure 5 (bottom): domain-specific integer-memory
// mini-graphs — one MGT shared by an entire suite.
func Fig5Domain(o Options) (*Artifact, error) {
	eng := o.engine()
	a := newArtifact("fig5dom", "Figure 5 (bottom): domain-specific integer-memory coverage",
		"suite", "bench", "app-specific e512", "domain e512", "domain e2048")
	suites := workload.Suites()
	type suiteRows struct {
		rows    [][]string
		reports []sim.Row
	}
	results := make([]suiteRows, len(suites))
	err := eng.Each(o.ctx(), len(suites), func(ctx context.Context, si int) error {
		suite := suites[si]
		benches := workload.BySuite(suite)
		var doms []core.DomainProgram
		var prs []*sim.Prepared
		for _, b := range benches {
			pr, err := eng.Prepare(ctx, prepKey(b, workload.InputTrain))
			if err != nil {
				return err
			}
			prs = append(prs, pr)
			doms = append(doms, core.DomainProgram{CFG: pr.CFG, Live: pr.Live, Profile: pr.Prof})
		}
		pol := policyFor(true, o.MaxSize)
		dom512 := core.SelectDomain(doms, pol, 512)
		dom2048 := core.SelectDomain(doms, pol, 2048)
		for i, pr := range prs {
			app := core.Extract(pr.CFG, pr.Live, pr.Prof, pol, 512)
			results[si].rows = append(results[si].rows, []string{
				suite, pr.Bench.Name,
				stats.Pct(app.Coverage()),
				stats.Pct(dom512[i].Coverage()),
				stats.Pct(dom2048[i].Coverage()),
			})
			results[si].reports = append(results[si].reports,
				sim.Row{Bench: pr.Bench.Name, Suite: suite, Arm: "app-specific/e512", Metric: "coverage", Value: app.Coverage()},
				sim.Row{Bench: pr.Bench.Name, Suite: suite, Arm: "domain/e512", Metric: "coverage", Value: dom512[i].Coverage()},
				sim.Row{Bench: pr.Bench.Name, Suite: suite, Arm: "domain/e2048", Metric: "coverage", Value: dom2048[i].Coverage()},
			)
		}
		o.logf("fig5dom: %s done", suite)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sr := range results {
		for _, row := range sr.rows {
			a.Tables[0].AddRow(row...)
		}
		a.Report.Add(sr.reports...)
	}
	return a, nil
}

// Robustness reproduces the §6.1 in-text experiment: select mini-graphs
// using the train profile, then measure the coverage those selections
// achieve on the test input's profile.
func Robustness(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	eng := o.engine()
	a := newArtifact("robust", "Profile robustness (select on train, measure on test)",
		"bench", "suite", "train cov", "test cov", "relative drop")
	type result struct{ trainCov, testCov, drop float64 }
	results := make([]result, len(benches))
	err = eng.Each(o.ctx(), len(benches), func(ctx context.Context, i int) error {
		b := benches[i]
		prTrain, err := eng.Prepare(ctx, prepKey(b, workload.InputTrain))
		if err != nil {
			return err
		}
		prTest, err := eng.Prepare(ctx, prepKey(b, workload.InputTest))
		if err != nil {
			return err
		}
		pol := policyFor(true, o.MaxSize)
		sel := core.Extract(prTrain.CFG, prTrain.Live, prTrain.Prof, pol, o.MGTEntries)
		trainCov := sel.Coverage()
		// Instances are static; re-weigh them with the test profile. The
		// programs differ only in data, so static PCs line up.
		var covered int64
		for _, s := range sel.Instances {
			blk := prTest.CFG.Blocks[s.Instance.Block]
			covered += int64(s.Instance.Size()-1) * prTest.Prof.BlockFreq(blk)
		}
		testCov := 0.0
		if prTest.Prof.DynInsts > 0 {
			testCov = float64(covered) / float64(prTest.Prof.DynInsts)
		}
		drop := 0.0
		if trainCov > 0 {
			drop = 1 - testCov/trainCov
		}
		results[i] = result{trainCov, testCov, drop}
		o.logf("robust: %s done", b.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var drops []float64
	for i, b := range benches {
		r := results[i]
		drops = append(drops, r.drop)
		a.Tables[0].AddRow(b.Name, b.Suite, stats.Pct(r.trainCov), stats.Pct(r.testCov), stats.Pct(r.drop))
		a.Report.Add(
			sim.Row{Bench: b.Name, Suite: b.Suite, Arm: "train", Metric: "coverage", Value: r.trainCov},
			sim.Row{Bench: b.Name, Suite: b.Suite, Arm: "test", Metric: "coverage", Value: r.testCov},
			sim.Row{Bench: b.Name, Suite: b.Suite, Metric: "coverage-drop", Value: r.drop},
		)
	}
	a.Tables[0].AddRow("mean", "", "", "", stats.Pct(stats.Mean(drops)))
	a.Report.Add(sim.Row{Agg: "mean", Metric: "coverage-drop", Value: stats.Mean(drops)})
	return a, nil
}
