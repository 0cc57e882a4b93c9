// Package sim is the shared simulation job engine behind the experiment
// harness, the CLIs, and the public facade. Every evaluation in the paper
// is a cross-product of (benchmark × input × extraction policy × machine
// configuration); the engine turns each point of that product into a typed,
// canonical job key and guarantees that each distinct key is computed
// exactly once, no matter how many figures ask for it concurrently.
//
// Two job kinds exist:
//
//   - PrepareKey identifies a benchmark preparation: build the program,
//     construct its CFG and liveness, and collect its basic-block frequency
//     profile. Preparation is input-dependent but policy- and
//     machine-independent, so every figure shares it.
//   - SimKey identifies a timing simulation: a preparation plus an
//     extraction policy, MGT size, compression mode and machine
//     configuration. Baseline simulations (no extraction) canonicalize the
//     policy axes to their zero values so the shared baseline is one key
//     across all figures; machine configurations canonicalize away their
//     display Name so cosmetically renamed configs share a cache line.
//
// The engine executes jobs on a bounded worker pool with single-flight
// deduplication and context cancellation threaded down into
// uarch.Pipeline.Run. Results are pure functions of their keys, so the
// output of a sweep is deterministic and independent of worker count.
package sim

import (
	"minigraph/internal/core"
	"minigraph/internal/isa"
	"minigraph/internal/program"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// PrepareKey identifies one benchmark preparation (static analysis +
// profile). It is a valid map key.
type PrepareKey struct {
	Bench string
	Input workload.Input
}

// Prepared is the result of a preparation job: everything downstream
// extraction and simulation need, computed once per (benchmark, input).
type Prepared struct {
	Bench *workload.Benchmark
	Prog  *isa.Program
	CFG   *program.CFG
	Live  *program.Liveness
	Prof  *program.Profile
}

// SimJob describes one timing simulation to run. Baseline jobs simulate
// the original binary (no extraction); otherwise the prepared program is
// extracted under Policy/Entries, rewritten (compressed or nop-fill), and
// simulated with a mini-graph table derived from Config.
type SimJob struct {
	Prepare  PrepareKey
	Baseline bool
	Policy   core.Policy
	Entries  int
	Compress bool
	Config   uarch.Config
}

// SimKey is a SimJob's canonical cache identity. Two jobs that must
// produce identical results map to the same key:
//
//   - Config.Name is presentation-only and is cleared;
//   - Config.StreamWindow is a delivery-buffer override that cannot affect
//     timing and is cleared;
//   - baseline jobs zero the extraction axes (Policy, Entries, Compress),
//     which do not affect an unrewritten binary;
//   - the front-end axes canonicalize per kind (bpred.Config.Canonical,
//     prefetch.Config.Canonical): kinds are made explicit, zero sizing
//     fields take the kind's defaults, and the inactive kind's sizing is
//     zeroed — a sparse `{"kind":"tage"}` override and the spelled-out
//     default TAGE machine share one cache line.
type SimKey struct {
	Prepare  PrepareKey
	Baseline bool
	Policy   core.Policy
	Entries  int
	Compress bool
	Config   uarch.Config
}

// Key canonicalizes the job.
func (j SimJob) Key() SimKey {
	k := SimKey{Prepare: j.Prepare, Baseline: j.Baseline, Config: j.Config}
	k.Config.Name = ""
	k.Config.StreamWindow = 0
	k.Config.BPred = k.Config.BPred.Canonical()
	k.Config.Prefetcher = k.Config.Prefetcher.Canonical()
	if !j.Baseline {
		k.Policy, k.Entries, k.Compress = j.Policy, j.Entries, j.Compress
	}
	return k
}

// TraceKey identifies one captured dynamic trace: the rewritten binary's
// identity (preparation plus extraction axes) and the record limit. The
// machine configuration is deliberately absent — the record stream is a
// pure function of the program and its mini-graph templates, so every arm
// of a configuration sweep over one rewrite shares one capture. That
// independence is what makes capture-once/replay-many sound, and the
// golden-invariance tests enforce it.
type TraceKey struct {
	Prepare  PrepareKey
	Baseline bool
	Policy   core.Policy
	Entries  int
	Compress bool
	Limit    int64
}

// TraceKey derives the capture identity of a simulation. Because the
// machine configuration is absent, every arm of a configuration sweep over
// one binary shares one TraceKey — the serving tier's coordinator mode
// exploits exactly this, sharding arms across workers by TraceKey so
// capture memoization and stored traces hit on the worker that
// already holds the trace.
func (k SimKey) TraceKey() TraceKey {
	return TraceKey{
		Prepare:  k.Prepare,
		Baseline: k.Baseline,
		Policy:   k.Policy,
		Entries:  k.Entries,
		Compress: k.Compress,
		Limit:    k.Config.MaxRecords,
	}
}

// Baseline returns the job that simulates b's unrewritten binary on cfg.
func Baseline(b PrepareKey, cfg uarch.Config) SimJob {
	return SimJob{Prepare: b, Baseline: true, Config: cfg}
}

// Outcome is one simulation's result. Selection is nil for baseline jobs.
// An outcome the engine computed carries the whole selection. One decoded
// from the store or a worker (DecodeOutcome) carries the templates and the
// coverage counts only: its Selection.Instances is nil. Every reader of an
// outcome uses Coverage() and Templates, never the instances.
type Outcome struct {
	Result    *uarch.Result
	Selection *core.Selection
}

// ExecParams derives the MGT scheduling parameters implied by a machine
// configuration (load latency, collapsing, ALU pipelines).
func ExecParams(cfg uarch.Config) core.ExecParams {
	return core.ExecParams{LoadLat: cfg.LoadLat, Collapse: cfg.Collapse, UseAP: cfg.APs > 0}
}
