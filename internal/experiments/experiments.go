// Package experiments reproduces every figure and in-text result set from
// the paper's evaluation (§6) and assembles each into an Artifact: the
// figure's text tables plus a structured, JSON-serializable report.
//
// The timing figures share one shape, and one driver (sweep.go) runs it.
// A figure declares an ordered list of named arms, each a function from a
// benchmark to the simulation job it submits; arm 0 is the reference the
// others are measured against. Options.sweep submits every arm of every
// benchmark to the shared memoizing engine (internal/sim) as one batch,
// benchmark by benchmark in arm order, and returns the outcomes indexed
// [bench][arm]. Two renderers then write the per-benchmark speedup rows
// and the per-suite geometric-mean rows into the table and the report
// together; a column only one figure has stays in that figure's code.
//
// Experiment index:
//
//	config  — the machine-configuration description of §6
//	fig5    — coverage vs MGT entries × mini-graph size (integer and
//	          integer-memory, application-specific)
//	fig5dom — domain-specific coverage (shared per-suite MGT)
//	robust  — cross-input profile robustness (§6.1 in-text)
//	fig6    — performance of int / int-mem mini-graphs, with and without
//	          pair-wise collapsing ALU pipelines
//	fig7    — serialization isolation (§6.2)
//	policy  — best per-benchmark selection policy (§6.2 in-text)
//	icache  — static compression / instruction-cache effect (§6.2 in-text)
//	fig8reg — register-file reduction (Figure 8 top)
//	fig8bw  — pipeline-bandwidth reduction and 2-cycle scheduler (Figure 8
//	          bottom)
//	ablate  — design-choice sensitivity knobs
//	frontend — IPC amplification under front-end variation (hybrid/TAGE
//	          predictor × no-prefetch/delta prefetcher)
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"minigraph/internal/core"
	"minigraph/internal/sim"
	"minigraph/internal/stats"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Benchmarks restricts the run (nil = every registered benchmark).
	Benchmarks []string
	// MGTEntries is the table size for performance experiments (paper: 512).
	MGTEntries int
	// MaxSize is the mini-graph size cap for performance experiments
	// (paper: 4).
	MaxSize int
	// Log, when non-nil, receives progress output.
	Log io.Writer
	// Context cancels in-flight simulations (nil = context.Background()).
	Context context.Context
	// Engine, when non-nil, is a shared memoizing job engine: benchmark
	// preparations and the common baseline simulations are then computed
	// once across every experiment that shares it. When nil each experiment
	// call builds a private engine with one worker per GOMAXPROCS.
	Engine *sim.Engine

	// Predictor and Prefetcher override the front end of every machine the
	// experiments build ("" keeps the presets' defaults: hybrid predictor,
	// no prefetcher). The frontend experiment ignores them — it sweeps both
	// axes itself.
	Predictor  string
	Prefetcher string
}

// DefaultOptions match the paper's main configuration.
func DefaultOptions() Options {
	return Options{MGTEntries: 512, MaxSize: 4}
}

func (o *Options) engine() *sim.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return sim.New(0)
}

func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// ErrUnknownBenchmark tags benchmark-selection failures so callers (e.g.
// the HTTP layer, for a 400 vs 500 split) can classify them with
// errors.Is instead of string matching.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// benchSet resolves the benchmark selection. Unknown names fail fast with
// the registered names listed — a typo must not silently shrink the run to
// the empty set. Every figure calls it before it simulates anything, so it
// also rejects an unknown front-end override (see checkFrontend).
func (o *Options) benchSet() ([]*workload.Benchmark, error) {
	if err := o.checkFrontend(); err != nil {
		return nil, err
	}
	if len(o.Benchmarks) == 0 {
		return workload.All(), nil
	}
	out := make([]*workload.Benchmark, 0, len(o.Benchmarks))
	for _, n := range o.Benchmarks {
		b, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("experiments: %w %q (known: %s)", ErrUnknownBenchmark, n, strings.Join(workload.Names(), " "))
		}
		out = append(out, b)
	}
	return out, nil
}

// Artifact is one experiment's regenerated output: the figure-style text
// tables and the structured report.
type Artifact struct {
	ID     string
	Tables []*stats.Table
	Report *sim.Report
}

// String renders every table.
func (a *Artifact) String() string {
	parts := make([]string, len(a.Tables))
	for i, t := range a.Tables {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// IDs lists the experiment identifiers in canonical (paper) order.
func IDs() []string {
	return []string{"config", "fig5", "fig5dom", "robust", "fig6", "fig7", "policy", "icache", "fig8reg", "fig8bw", "ablate", "frontend"}
}

// checkFrontend rejects an unknown predictor or prefetcher override,
// naming the known kinds. Left to the machines, an unknown kind would be
// dropped by applyFrontend and the default front end simulated instead.
func (o *Options) checkFrontend() error {
	if _, err := uarch.WithFrontend(uarch.Config{}, o.Predictor, o.Prefetcher); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// applyFrontend rewrites one machine configuration with the Options-level
// front-end overrides. Empty overrides return cfg unchanged, so default
// runs stay byte-identical to their golden fixtures; benchSet has rejected
// unknown kinds before any machine is built.
func (o *Options) applyFrontend(cfg uarch.Config) uarch.Config {
	cfg, _ = uarch.WithFrontend(cfg, o.Predictor, o.Prefetcher)
	return cfg
}

// Run regenerates one experiment by id. An unknown front-end override
// fails every id, also those whose machines it would not reach.
func Run(id string, o Options) (*Artifact, error) {
	if err := o.checkFrontend(); err != nil {
		return nil, err
	}
	switch id {
	case "config":
		t := ConfigTable()
		rep := sim.NewReport(id, t.Title)
		for _, row := range t.Rows {
			rep.Add(sim.Row{Arm: row[0], Metric: "config", Text: row[1]})
		}
		return &Artifact{ID: id, Tables: []*stats.Table{t}, Report: rep}, nil
	case "fig5":
		a, _, err := Fig5(o)
		return a, err
	case "fig5dom":
		return Fig5Domain(o)
	case "robust":
		return Robustness(o)
	case "fig6":
		a, _, err := Fig6(o)
		return a, err
	case "fig7":
		a, _, err := Fig7(o)
		return a, err
	case "policy":
		return PolicyBest(o)
	case "icache":
		return ICache(o)
	case "fig8reg":
		return Fig8Regs(o)
	case "fig8bw":
		return Fig8Bandwidth(o)
	case "ablate":
		return Ablations(o)
	case "frontend":
		return Frontend(o)
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// prepKey is the canonical preparation key for a benchmark.
func prepKey(b *workload.Benchmark, in workload.Input) sim.PrepareKey {
	return sim.PrepareKey{Bench: b.Name, Input: in}
}

// policyFor builds the extraction policy for an experiment arm.
func policyFor(intMem bool, maxSize int) core.Policy {
	pol := core.DefaultPolicy()
	pol.MaxSize = maxSize
	pol.AllowMem = intMem
	return pol
}

// machineFor builds the timing configuration for an experiment arm, under
// the options' front-end overrides.
func (o *Options) machineFor(intMem, collapse bool) uarch.Config {
	cfg := uarch.MiniGraph(intMem)
	cfg.Collapse = collapse
	if collapse {
		cfg.Name += "+collapse"
	}
	return o.applyFrontend(cfg)
}
