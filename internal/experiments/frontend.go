package experiments

import (
	"minigraph/internal/sim"
	"minigraph/internal/stats"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
)

// frontendArms are the front-end combinations the frontend experiment
// sweeps: both predictor kinds crossed with prefetching off and on. Each
// arm applies to the baseline and the mini-graph machine alike, so the
// amplification ratio compares like against like.
var frontendArms = []struct {
	name string
	pred string
	pf   string
}{
	{"hybrid", bpred.KindHybrid, prefetch.KindNone},
	{"tage", bpred.KindTAGE, prefetch.KindNone},
	{"hybrid+delta", bpred.KindHybrid, prefetch.KindDelta},
	{"tage+delta", bpred.KindTAGE, prefetch.KindDelta},
}

// Frontend measures IPC amplification (mini-graph speedup over the same
// front end's baseline) under front-end variation, plus the conditional
// mispredict rate of each predictor and the prefetch traffic of each delta
// arm. The hybrid/no-prefetch arm reuses the exact default keys, so with a
// shared engine it is a pure cache hit after any performance experiment.
func Frontend(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	// Per front end, a baseline arm and then its mini-graph arm.
	var arms []arm
	names := make([]string, len(frontendArms))
	for k, f := range frontendArms {
		names[k] = f.name
		fo := o
		fo.Predictor, fo.Prefetcher = f.pred, f.pf
		arms = append(arms,
			fo.reference("baseline/"+f.name),
			mgArm("minigraph/"+f.name, policyFor(true, o.MaxSize), o.MGTEntries, fo.machineFor(true, false), false))
	}
	outs, err := o.sweep("frontend", benches, arms)
	if err != nil {
		return nil, err
	}

	a := newArtifact("frontend", "Front-end axes: IPC amplification and mispredict rate",
		"bench", "suite", "hybrid", "tage", "hybrid+delta", "tage+delta", "hybrid MR", "tage MR")
	amp := make([][]float64, len(benches))
	// Aggregate baseline-machine mispredict totals per predictor kind; the
	// experiment reports the benchSubset-wide rate the TAGE-vs-hybrid
	// regression test asserts on.
	condSeen := map[string]int64{}
	condMiss := map[string]int64{}
	for i, b := range benches {
		cells := []string{b.Name, b.Suite}
		var mr [2]float64
		for k, f := range frontendArms {
			base, mg := outs[i][2*k].Result, outs[i][2*k+1].Result
			v := uarch.Speedup(base, mg)
			amp[i] = append(amp[i], v)
			cells = append(cells, stats.SpeedupStr(v))
			a.Report.Add(
				sim.Row{Bench: b.Name, Suite: b.Suite, Arm: f.name, Metric: "amplification", Value: v},
				sim.Row{Bench: b.Name, Suite: b.Suite, Arm: f.name, Metric: "base-mispredict-rate", Value: base.CondMispredictRate()},
			)
			if f.pf == prefetch.KindNone {
				mr[k&1] = base.CondMispredictRate()
				condSeen[f.pred] += base.CondBranches
				condMiss[f.pred] += base.CondMispredicts
			}
			if mg.PrefetchIssued > 0 {
				a.Report.Add(
					sim.Row{Bench: b.Name, Suite: b.Suite, Arm: f.name, Metric: "prefetch_issued", Value: float64(mg.PrefetchIssued)},
					sim.Row{Bench: b.Name, Suite: b.Suite, Arm: f.name, Metric: "prefetch_useful", Value: float64(mg.PrefetchUseful)},
					sim.Row{Bench: b.Name, Suite: b.Suite, Arm: f.name, Metric: "prefetch_late", Value: float64(mg.PrefetchLate)},
				)
			}
		}
		a.Tables[0].AddRow(append(cells, stats.Pct(mr[0]), stats.Pct(mr[1]))...)
	}
	a.gmeanRows(benches, "amplification", names, amp, 1)
	for _, kind := range bpred.Kinds() {
		rate := 0.0
		if condSeen[kind] > 0 {
			rate = float64(condMiss[kind]) / float64(condSeen[kind])
		}
		a.Report.Add(sim.Row{Arm: kind, Agg: "total", Metric: "cond_mispredict_rate", Value: rate})
	}
	return a, nil
}
