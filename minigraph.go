// Package minigraph is a from-scratch reproduction of "Dataflow Mini-Graphs:
// Amplifying Superscalar Capacity and Bandwidth" (Bracy, Prahlad & Roth,
// MICRO-37, 2004).
//
// A mini-graph is a connected dataflow graph with the interface of a single
// instruction: two register inputs, one register output, at most one memory
// operation, and at most one terminal control transfer. The toolchain in
// this module extracts mini-graphs from basic-block frequency profiles,
// rewrites binaries to use handle quasi-instructions, and simulates a
// 6-wide out-of-order processor that executes handles through a mini-graph
// table (MGT), amplifying the bandwidth of every pipeline stage and the
// capacity of the scheduler and register file.
//
// The typical flow:
//
//	prog, _ := minigraph.Assemble("kernel", src)
//	prof, _ := minigraph.ProfileOf(prog, 0)
//	rw, _ := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
//	base, _ := minigraph.Simulate(minigraph.BaselineConfig(), prog, nil)
//	mg, _ := minigraph.Simulate(minigraph.MiniGraphConfig(true), rw.Prog, rw.MGT)
//	fmt.Printf("speedup: %.3f\n", minigraph.Speedup(base, mg))
//
// Sub-systems live in internal packages: internal/core (extraction,
// selection, MGT), internal/uarch (the cycle-level processor model),
// internal/dise (the DISE decode-stage rewriting engine), internal/emu
// (the architectural emulator), internal/workload (the benchmark suites)
// and internal/experiments (the harness that regenerates the paper's
// figures).
package minigraph

import (
	"context"
	"fmt"

	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// Re-exported core types. The implementations live in internal packages;
// these aliases form the supported public surface.
type (
	// Program is an assembled executable.
	Program = isa.Program
	// Profile is a basic-block frequency profile.
	Profile = program.Profile
	// Policy configures which mini-graphs are admissible.
	Policy = core.Policy
	// Selection is the outcome of mini-graph selection.
	Selection = core.Selection
	// Template is one mini-graph definition (a logical MGT row).
	Template = core.Template
	// MGT is the mini-graph table.
	MGT = core.MGT
	// ExecParams shape MGST schedules (load latency, collapsing, APs).
	ExecParams = core.ExecParams
	// SimConfig is a complete machine description.
	SimConfig = uarch.Config
	// SimResult holds one simulation's statistics.
	SimResult = uarch.Result
	// Benchmark is one workload kernel.
	Benchmark = workload.Benchmark
	// Input selects a benchmark's input data set.
	Input = workload.Input

	// Engine is the shared memoizing simulation job engine: submissions
	// with equal canonical keys run exactly once, on a bounded worker pool
	// with context cancellation.
	Engine = sim.Engine
	// EngineStats are an Engine's cache counters.
	EngineStats = sim.Stats
	// PrepareKey identifies one benchmark preparation job.
	PrepareKey = sim.PrepareKey
	// SimJob describes one timing simulation for an Engine.
	SimJob = sim.SimJob
	// SimOutcome is an Engine simulation's result.
	SimOutcome = sim.Outcome
	// Report is a structured, JSON-serializable experiment result set.
	Report = sim.Report

	// Store is a content-addressed, disk-backed result store; attach one
	// to an Engine with WithStore so simulation outcomes persist across
	// processes.
	Store = store.Store
	// StoreStats are a Store's hit/miss/eviction counters and footprint.
	StoreStats = store.Stats

	// Trace is an immutable captured dynamic-instruction stream: one
	// functional emulation, replayable by any number of concurrent timing
	// simulations (see CaptureTrace / SimulateTrace).
	Trace = trace.Trace

	// ServeClient is an HTTP client for an mgserve instance: synchronous
	// simulate/sweep calls plus the async job API (submit a sweep, poll
	// its progress, fetch the finished report, cancel). Build one with
	// NewServeClient.
	ServeClient = serve.Client
	// ServeJobSpec is the wire form of one simulation job for mgserve.
	ServeJobSpec = serve.JobSpec
	// ServeSweepRequest is a named batch of mgserve arms.
	ServeSweepRequest = serve.SweepRequest
	// ServeJobStatus is an async mgserve job's status: lifecycle state,
	// per-arm progress, and (once done) the sweep report.
	ServeJobStatus = serve.JobStatus
)

// Input sets for PrepareKey and Benchmark.Build.
const (
	InputTrain = workload.InputTrain
	InputTest  = workload.InputTest
)

// ProfileLimit is the dynamic-instruction cap the engine profiles under;
// profile with the same cap outside the engine for identical selections.
const ProfileLimit = sim.ProfileLimit

// Assemble builds a program from assembly source.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// MustAssemble is Assemble that panics on error (for known-good sources).
func MustAssemble(name, src string) *Program { return asm.MustAssemble(name, src) }

// Disassemble renders a program as assembly text.
func Disassemble(p *Program) string { return isa.Disassemble(p) }

// ProfileOf runs the program functionally and collects its basic-block
// frequency profile. limit bounds dynamic instructions (0 = 10M).
func ProfileOf(p *Program, limit int64) (*Profile, error) {
	if limit <= 0 {
		limit = 10_000_000
	}
	return emu.ProfileProgram(p, nil, limit)
}

// DefaultPolicy matches the paper's main configuration: integer-memory
// mini-graphs of up to four instructions.
func DefaultPolicy() Policy { return core.DefaultPolicy() }

// IntegerPolicy restricts extraction to integer mini-graphs.
func IntegerPolicy() Policy { return core.IntegerPolicy() }

// DefaultExecParams match the paper's machine (2-cycle loads, ALU
// pipelines, no collapsing).
func DefaultExecParams() ExecParams { return core.DefaultExecParams() }

// Rewritten bundles a rewritten binary with its mini-graph table.
type Rewritten struct {
	Prog      *Program
	MGT       *MGT
	Selection *Selection
	// HandleCount is the number of handles planted; RemovedInsts the
	// number of constituent instructions they absorbed.
	HandleCount  int
	RemovedInsts int
}

// Extract profiles-drives mini-graph selection over p and rewrites it with
// handles (nop-fill layout). mgtEntries bounds the table (paper: 512).
func Extract(p *Program, prof *Profile, pol Policy, mgtEntries int, params ExecParams) (*Rewritten, error) {
	return extract(p, prof, pol, mgtEntries, params, false)
}

// ExtractCompressed is Extract with compacted text (the instruction-cache
// compression mode of §6.2).
func ExtractCompressed(p *Program, prof *Profile, pol Policy, mgtEntries int, params ExecParams) (*Rewritten, error) {
	return extract(p, prof, pol, mgtEntries, params, true)
}

func extract(p *Program, prof *Profile, pol Policy, mgtEntries int, params ExecParams, compress bool) (*Rewritten, error) {
	g := program.BuildCFG(p, nil)
	lv := program.ComputeLiveness(g)
	sel := core.Extract(g, lv, prof, pol, mgtEntries)
	res, err := rewrite.Rewrite(p, sel, compress)
	if err != nil {
		return nil, err
	}
	return &Rewritten{
		Prog:         res.Prog,
		MGT:          core.NewMGT(res.Templates, params),
		Selection:    sel,
		HandleCount:  res.HandleCount,
		RemovedInsts: res.RemovedInsts,
	}, nil
}

// BaselineConfig returns the paper's 6-wide baseline machine.
func BaselineConfig() SimConfig { return uarch.Baseline() }

// MiniGraphConfig returns the mini-graph machine: two ALUs replaced by two
// 4-stage ALU pipelines, plus (when intMem) a sliding-window scheduler.
func MiniGraphConfig(intMem bool) SimConfig { return uarch.MiniGraph(intMem) }

// FrontendConfig applies front-end overrides to a machine configuration by
// kind name: predictor "hybrid" or "tage", prefetcher "none" or "delta"
// (each at its default sizing; "" keeps cfg's current setting). Unknown
// names are errors that list the valid kinds.
func FrontendConfig(cfg SimConfig, predictor, prefetcher string) (SimConfig, error) {
	cfg, err := uarch.WithFrontend(cfg, predictor, prefetcher)
	if err != nil {
		return cfg, fmt.Errorf("minigraph: %w", err)
	}
	return cfg, nil
}

// Simulate runs the cycle-level timing model. mgt may be nil for plain
// binaries.
func Simulate(cfg SimConfig, p *Program, mgt *MGT) (*SimResult, error) {
	return SimulateContext(context.Background(), cfg, p, mgt)
}

// SimulateContext is Simulate with cancellation: the simulation aborts
// promptly with ctx's error once ctx is done.
func SimulateContext(ctx context.Context, cfg SimConfig, p *Program, mgt *MGT) (*SimResult, error) {
	return uarch.New(cfg, p, mgt).Run(ctx)
}

// CaptureTrace runs p functionally once (to halt, fault, or limit dynamic
// records; limit <= 0 means to completion) and records the dynamic
// instruction stream. Replaying the trace with SimulateTrace produces
// results byte-identical to Simulate while skipping the emulation — the
// economical way to sweep many machine configurations over one binary.
func CaptureTrace(ctx context.Context, p *Program, mgt *MGT, limit int64) (*Trace, error) {
	return trace.Capture(ctx, p, mgt, limit)
}

// SimulateTrace runs the timing model over a captured trace instead of
// live emulation. The trace must have been captured from p (or a
// structurally identical program) with a record limit covering
// cfg.MaxRecords. Any number of SimulateTrace calls may share one trace
// concurrently; each opens a private cursor.
func SimulateTrace(ctx context.Context, cfg SimConfig, tr *Trace, p *Program, mgt *MGT) (*SimResult, error) {
	return uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, p, cfg.MaxRecords)).Run(ctx)
}

// NewEngine builds a memoizing simulation job engine with the given
// worker-pool size (0 = GOMAXPROCS). Share one engine across related
// sweeps so common preparations and baseline simulations run exactly once.
func NewEngine(workers int) *Engine { return sim.New(workers) }

// OpenStore opens (creating if needed) a persistent result store rooted at
// dir. maxBytes bounds the store's on-disk footprint with LRU eviction
// (0 = a 1 GiB default, negative = unbounded). Attach the store to an
// engine with Engine.WithStore; repeated runs across processes then skip
// every previously computed simulation.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	return store.Open(dir, store.Options{MaxBytes: maxBytes})
}

// NewServeClient builds an HTTP client for the mgserve instance at base
// (e.g. "http://localhost:8347"). Typical async flow:
//
//	c := minigraph.NewServeClient("http://localhost:8347")
//	st, _ := c.SubmitJob(ctx, minigraph.ServeSweepRequest{Jobs: arms})
//	st, _ = c.WaitJob(ctx, st.ID, 0)
//	data, _ := c.JobReportJSON(ctx, st.ID) // byte-identical to /v1/sweep
func NewServeClient(base string) *ServeClient { return serve.NewClient(base) }

// Speedup returns base.Cycles / other.Cycles.
func Speedup(base, other *SimResult) float64 { return uarch.Speedup(base, other) }

// Run executes the program architecturally (no timing) and returns its
// final state checksum and dynamic instruction count.
func Run(p *Program, mgt *MGT, limit int64) (memChecksum uint64, dynInsts int64, err error) {
	if limit <= 0 {
		limit = 10_000_000
	}
	st, err := emu.RunToCompletion(p, mgt, limit)
	if err != nil {
		return 0, 0, err
	}
	return st.MemSum, st.InstCount, nil
}

// Benchmarks lists the built-in workload kernels (SPECint-, MediaBench-,
// CommBench- and MiBench-like suites).
func Benchmarks() []*Benchmark { return workload.All() }

// BenchmarkByName finds a built-in kernel.
func BenchmarkByName(name string) (*Benchmark, bool) { return workload.ByName(name) }
