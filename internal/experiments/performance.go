package experiments

import (
	"fmt"

	"minigraph/internal/core"
	"minigraph/internal/sim"
	"minigraph/internal/stats"
)

// PerfRow is one benchmark's Figure 6 measurements.
type PerfRow struct {
	Bench       string
	Suite       string
	BaseIPC     float64
	Int         float64 // speedup of integer mini-graphs + ALU pipelines
	IntCollapse float64
	IntMem      float64 // + sliding-window scheduler
	IntMemColl  float64
	Coverage    float64 // int-mem coverage at the experiment point
}

// fig6Arms are Figure 6's machine/policy arms, in column order.
var fig6Arms = []struct {
	name     string
	intMem   bool
	collapse bool
}{
	{"int", false, false},
	{"int+collapse", false, true},
	{"intmem", true, false},
	{"intmem+collapse", true, true},
}

// Fig6 reproduces Figure 6: mini-graph processor performance relative to
// the 6-wide baseline, for integer and integer-memory mini-graphs, with
// plain and pair-wise-collapsing ALU pipelines.
func Fig6(o Options) (*Artifact, []PerfRow, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, nil, err
	}
	arms := []arm{o.reference("baseline")}
	for _, a := range fig6Arms {
		arms = append(arms, mgArm(a.name, policyFor(a.intMem, o.MaxSize), o.MGTEntries, o.machineFor(a.intMem, a.collapse), false))
	}
	outs, err := o.sweep("fig6", benches, arms)
	if err != nil {
		return nil, nil, err
	}

	names := armNames(arms[1:])
	vals := speedups(outs)
	a := newArtifact("fig6", "Figure 6: speedup over 6-wide baseline",
		"bench", "suite", "base IPC", "int", "int+collapse", "int-mem", "int-mem+collapse", "coverage")
	rows := make([]PerfRow, len(benches))
	for i, b := range benches {
		v := vals[i]
		ipc, cov := outs[i][0].Result.IPC(), outs[i][3].Selection.Coverage() // arm 3: intmem
		rows[i] = PerfRow{Bench: b.Name, Suite: b.Suite, BaseIPC: ipc, Int: v[0], IntCollapse: v[1], IntMem: v[2], IntMemColl: v[3], Coverage: cov}
		a.Report.Add(sim.Row{Bench: b.Name, Suite: b.Suite, Metric: "base-ipc", Value: ipc})
		a.benchRow(b, "speedup", names, v, []string{b.Name, b.Suite, fmt.Sprintf("%.3f", ipc)}, stats.Pct(cov))
		a.Report.Add(sim.Row{Bench: b.Name, Suite: b.Suite, Arm: "intmem", Metric: "coverage", Value: cov})
	}
	a.gmeanRows(benches, "speedup", names, vals, 2)
	return a, rows, nil
}

// fig7Arm is one serialization-isolation arm of Figure 7.
type fig7Arm struct {
	name   string
	intMem bool
	mut    func(*core.Policy)
}

var fig7Arms = []fig7Arm{
	{"int", false, nil},
	{"int -extserial", false, func(p *core.Policy) { p.AllowExtSerial = false }},
	{"int -intserial", false, func(p *core.Policy) { p.AllowIntParallel = false }},
	{"int -serial", false, func(p *core.Policy) { p.AllowExtSerial = false; p.AllowIntParallel = false }},
	{"intmem", true, nil},
	{"intmem -serial", true, func(p *core.Policy) { p.AllowExtSerial = false; p.AllowIntParallel = false }},
	{"intmem -serial -replay", true, func(p *core.Policy) {
		p.AllowExtSerial = false
		p.AllowIntParallel = false
		p.AllowInteriorLoad = false
	}},
}

// Fig7 reproduces Figure 7: the cost of external serialization, internal
// serialization, and load-miss replays, isolated by selection policy.
func Fig7(o Options) (*Artifact, map[string][]float64, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, nil, err
	}
	arms := []arm{o.reference("baseline")}
	for _, fa := range fig7Arms {
		pol := policyFor(fa.intMem, o.MaxSize)
		if fa.mut != nil {
			fa.mut(&pol)
		}
		arms = append(arms, mgArm(fa.name, pol, o.MGTEntries, o.machineFor(fa.intMem, false), false))
	}
	outs, err := o.sweep("fig7", benches, arms)
	if err != nil {
		return nil, nil, err
	}

	names := armNames(arms[1:])
	a := newArtifact("fig7", "Figure 7: serialization and replay isolation (speedup vs baseline)",
		append([]string{"bench"}, names...)...)
	byArm := make(map[string][]float64)
	for i, v := range speedups(outs) {
		a.benchRow(benches[i], "speedup", names, v, []string{benches[i].Name})
		for k, name := range names {
			byArm[name] = append(byArm[name], v[k])
		}
	}
	return a, byArm, nil
}

// PolicyBest reproduces the §6.2 in-text result: applying the best
// serialization/replay policy per benchmark raises the suite means. With a
// shared engine every Figure 7 simulation is a cache hit here.
func PolicyBest(o Options) (*Artifact, error) {
	if o.Engine == nil {
		// Share one engine between the Fig7 sweep and any retries so the
		// sub-experiment is not recomputed.
		o.Engine = o.engine()
	}
	_, speedByArm, err := Fig7(o)
	if err != nil {
		return nil, err
	}
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	a := newArtifact("policy", "Best per-benchmark policy (suite gmeans)",
		"suite", "unrestricted int-mem", "best-policy")
	for _, suite := range suitesOf(benches) {
		var unres, best []float64
		for i, b := range benches {
			if b.Suite != suite {
				continue
			}
			u := speedByArm["intmem"][i]
			m := u
			for _, fa := range fig7Arms {
				if v := speedByArm[fa.name][i]; v > m {
					m = v
				}
			}
			unres = append(unres, u)
			best = append(best, m)
		}
		a.Tables[0].AddRowf(suite, stats.GeoMean(unres), stats.GeoMean(best))
		a.Report.Add(
			sim.Row{Suite: suite, Arm: "intmem", Agg: "gmean", Metric: "speedup", Value: stats.GeoMean(unres)},
			sim.Row{Suite: suite, Arm: "best-policy", Agg: "gmean", Metric: "speedup", Value: stats.GeoMean(best)},
		)
	}
	return a, nil
}

// ICache reproduces the §6.2 instruction-cache experiment: compressed
// rewriting (constituents removed, text compacted) versus nop-fill.
func ICache(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	pol, cfg := policyFor(true, o.MaxSize), o.machineFor(true, false)
	arms := []arm{
		o.reference("baseline"),
		mgArm("nop-fill", pol, o.MGTEntries, cfg, false),
		mgArm("compressed", pol, o.MGTEntries, cfg, true),
	}
	outs, err := o.sweep("icache", benches, arms)
	if err != nil {
		return nil, err
	}

	names := armNames(arms[1:])
	vals := speedups(outs)
	delta := func(v []float64) string { return stats.SpeedupStr(v[1] - v[0]) }
	a := newArtifact("icache", "Instruction-cache compression effect (speedup vs baseline)",
		"bench", "suite", "nop-fill", "compressed", "delta")
	for i, b := range benches {
		a.benchRow(b, "speedup", names, vals[i], []string{b.Name, b.Suite}, delta(vals[i]))
	}
	a.gmeanRows(benches, "speedup", names, vals, 1, delta)
	return a, nil
}
