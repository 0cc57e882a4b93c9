package experiments

import "minigraph/internal/uarch"

// ablationArms are the design-choice knobs around the default mini-graph
// machine:
//
//   - intmem×2: issue two heterogeneous handles per cycle instead of one
//     (§4.3 argues one is sufficient; this measures what the FUBMP
//     cross-check complexity would buy);
//   - 4 APs: replace all four baseline ALUs with ALU pipelines;
//   - AP depth 8: deeper pipelines admit longer integer graphs (with
//     MaxSize 8 selection);
//   - MGT 128: a quarter-size table (coverage-limited selection);
//   - no window: sliding-window scheduler disabled (integer-only
//     selection, the configuration forced on machines without FUBMP
//     support).
var ablationArms = []struct {
	name    string
	intMem  bool
	maxSize int
	entries int
	mutate  func(*uarch.Config)
}{
	{"default", true, 0, 0, nil},
	{"intmem x2", true, 0, 0, func(c *uarch.Config) { c.IntMemIssuePerCycle = 2 }},
	{"4 APs", true, 0, 0, func(c *uarch.Config) { c.IntALUs, c.APs = 0, 4 }},
	{"AP depth 8", true, 8, 0, func(c *uarch.Config) { c.APDepth = 8 }},
	{"MGT 128", true, 0, 128, nil},
	{"no window (int only)", false, 0, 0, func(c *uarch.Config) { c.IntMemIssuePerCycle = 0 }},
}

// Ablations quantifies the design choices the paper fixes by fiat, each as
// one knob around the default mini-graph machine.
func Ablations(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	arms := []arm{o.reference("baseline")}
	for _, ab := range ablationArms {
		cfg := o.machineFor(ab.intMem, false)
		if ab.mutate != nil {
			ab.mutate(&cfg)
		}
		cfg.Name = "ablate-" + ab.name
		maxSize, entries := o.MaxSize, o.MGTEntries
		if ab.maxSize > 0 {
			maxSize = ab.maxSize
		}
		if ab.entries > 0 {
			entries = ab.entries
		}
		arms = append(arms, mgArm(ab.name, policyFor(ab.intMem, maxSize), entries, cfg, false))
	}
	return o.speedupFigure("ablate", "Ablations: design-choice sensitivity (speedup vs baseline)", benches, arms)
}
