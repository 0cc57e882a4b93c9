// Package uarch is the cycle-level timing model of the paper's machine: a
// 6-way superscalar, dynamically scheduled, 15-stage out-of-order pipeline
// (§6) extended with mini-graph support (§4): MGHT-driven scheduling, MGST
// sequencers, ALU pipelines and a sliding-window scheduler.
//
// The model is execution-driven: the architecturally correct dynamic
// instruction stream (with resolved addresses and branch outcomes) arrives
// through a TraceSource — internal/emu generating records live, or
// internal/trace replaying a captured stream; timing is byte-identical
// either way. Branch predictors are modelled and trained; a misprediction
// stalls fetch until the branch resolves and then refills the front end
// (the standard stall-on-mispredict approximation). Memory-ordering
// violations and mini-graph replays rewind the stream cursor and flush
// younger state.
package uarch

import (
	"fmt"
	"strings"

	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/cache"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/uarch/storesets"
)

// Config is the complete machine description.
type Config struct {
	Name string

	// Pipeline widths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Window capacities.
	ROBSize  int
	IQSize   int
	LSQSize  int
	PhysRegs int // total physical registers (architectural + in-flight)

	// Execution resources. IntALUs counts conventional ALUs; APs counts
	// ALU pipelines (each APDepth stages). Mini-graph configurations
	// replace two of the four baseline ALUs with two 4-stage APs.
	IntALUs    int
	APs        int
	APDepth    int
	FPUnits    int
	LoadPorts  int
	StorePorts int

	// Register file.
	RFReadPorts   int
	RFWritePorts  int
	RegReadCycles int

	// SchedCycles is the scheduling-loop length: 1 permits back-to-back
	// dependent issue; 2 models a pipelined wake-up/select loop, which
	// effectively raises every single-cycle operation's latency to 2 (§6.3).
	SchedCycles int

	// FrontendDepth is the fetch-to-dispatch latency in cycles; together
	// with schedule + register read + execute it forms the 15-stage pipe.
	FrontendDepth int

	// LoadLat is the load-to-use hit latency.
	LoadLat int

	// MemLatency is the DRAM access latency in core cycles behind the L2
	// (0 = the paper's 100 cycles). Latency chains built from this value
	// plus bus queueing can stretch thousands of cycles; the pipeline's
	// event wheel handles arbitrarily distant wakeups exactly.
	MemLatency int

	// Collapse enables pair-wise collapsing ALU pipelines (§6.2).
	Collapse bool

	// IntMemIssuePerCycle bounds integer-memory handle issue per cycle
	// (§4.3: "supporting the issue of a single heterogeneous handle per
	// cycle is sufficient"). Zero disables the sliding-window scheduler:
	// integer-memory handles cannot issue (binaries for such configs must
	// be rewritten with integer-only policies).
	IntMemIssuePerCycle int

	// WindowHorizon is the sliding-window depth in cycles; it must exceed
	// the maximum mini-graph execution latency.
	WindowHorizon int

	BPred bpred.Config
	// Prefetcher configures the L1D prefetch engine (zero value = none).
	// Prefetch fills go through the real L1D/L2/bus model, so enabling it
	// changes bus contention, not just hit rates.
	Prefetcher prefetch.Config
	StoreSets  storesets.Config
	ICache     cache.Config
	DCache     cache.Config
	L2         cache.Config

	// MaxRecords bounds the run (0 = run to halt).
	MaxRecords int64
}

// Baseline returns the paper's baseline machine (§6): 6-way superscalar,
// 15-stage, 128 ROB / 64 LSQ / 50 IQ, 164 physical registers with a
// 5-read/4-write-port 2-cycle register file, per-cycle issue of up to
// 4 integer + 2 FP + 2 load + 1 store operations, hybrid 12Kb predictor,
// 2K-entry 4-way BTB, 32KB L1s, 2MB L2, 100-cycle memory.
func Baseline() Config {
	return Config{
		Name:          "baseline-6wide",
		FetchWidth:    6,
		RenameWidth:   6,
		IssueWidth:    6,
		CommitWidth:   6,
		ROBSize:       128,
		IQSize:        50,
		LSQSize:       64,
		PhysRegs:      164,
		IntALUs:       4,
		APs:           0,
		APDepth:       4,
		FPUnits:       2,
		LoadPorts:     2,
		StorePorts:    1,
		RFReadPorts:   5,
		RFWritePorts:  4,
		RegReadCycles: 2,
		SchedCycles:   1,
		FrontendDepth: 9,
		LoadLat:       2,
		BPred:         bpred.DefaultConfig(),
		StoreSets:     storesets.DefaultConfig(),
		ICache:        cache.L1IConfig(),
		DCache:        cache.L1DConfig(),
		L2:            cache.L2Config(),
		WindowHorizon: 32,
	}
}

// MiniGraph returns the mini-graph machine of §6.2: the baseline with two
// integer ALUs replaced by two 4-stage ALU pipelines and, when intMem is
// true, a sliding-window scheduler issuing one integer-memory handle per
// cycle.
func MiniGraph(intMem bool) Config {
	c := Baseline()
	c.Name = "minigraph"
	c.IntALUs = 2
	c.APs = 2
	if intMem {
		c.Name = "minigraph-intmem"
		c.IntMemIssuePerCycle = 1
	}
	return c
}

// WithFrontend returns cfg with its front end chosen by kind name: the
// predictor "hybrid" or "tage" and the prefetcher "none" or "delta", each
// at its default sizing ("" keeps cfg's setting). It is the one place a
// kind name becomes a configuration; an unknown name is an error that
// lists the valid kinds.
func WithFrontend(cfg Config, predictor, prefetcher string) (Config, error) {
	switch predictor {
	case "":
	case bpred.KindHybrid:
		cfg.BPred = bpred.DefaultConfig()
	case bpred.KindTAGE:
		cfg.BPred = bpred.TageConfig()
	default:
		return cfg, fmt.Errorf("unknown predictor %q (known: %s)", predictor, strings.Join(bpred.Kinds(), " "))
	}
	switch prefetcher {
	case "":
	case prefetch.KindNone:
		cfg.Prefetcher = prefetch.Config{Kind: prefetch.KindNone}
	case prefetch.KindDelta:
		cfg.Prefetcher = prefetch.DefaultDelta()
	default:
		return cfg, fmt.Errorf("unknown prefetcher %q (known: %s)", prefetcher, strings.Join(prefetch.Kinds(), " "))
	}
	return cfg, nil
}

// FrontendCapacity returns the fetch-to-rename pipe depth in uops.
func (c *Config) FrontendCapacity() int {
	return c.FrontendDepth*c.FetchWidth + c.FetchWidth
}

// MaxSquashDepth returns the deepest possible stream rewind: everything in
// the ROB plus everything in the front end. The live stream's retention
// window is derived from it; every layer that sizes or validates against
// the squash depth must use this one definition.
func (c *Config) MaxSquashDepth() int {
	return c.ROBSize + c.FrontendCapacity()
}

// Check reports an impossible configuration as a structured error, so
// layers fed configs from outside the process (the HTTP job spec, the
// differential harness) can refuse one cleanly instead of panicking a
// worker mid-sweep. nil means the config can build a pipeline.
func (c *Config) Check() error {
	switch {
	case c.FetchWidth <= 0 || c.RenameWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("uarch: non-positive width (fetch %d, rename %d, issue %d, commit %d)",
			c.FetchWidth, c.RenameWidth, c.IssueWidth, c.CommitWidth)
	case c.ROBSize <= 0 || c.IQSize <= 0 || c.LSQSize <= 0:
		return fmt.Errorf("uarch: non-positive window capacity (ROB %d, IQ %d, LSQ %d)",
			c.ROBSize, c.IQSize, c.LSQSize)
	case c.PhysRegs < 65:
		return fmt.Errorf("uarch: %d physical registers cannot rename 64 architectural ones", c.PhysRegs)
	case c.IntALUs+c.APs == 0:
		return fmt.Errorf("uarch: no integer units")
	case c.MemLatency < 0:
		return fmt.Errorf("uarch: negative memory latency %d", c.MemLatency)
	}
	if err := c.BPred.Validate(); err != nil {
		return fmt.Errorf("uarch: %w", err)
	}
	if err := c.Prefetcher.Validate(); err != nil {
		return fmt.Errorf("uarch: %w", err)
	}
	return nil
}

// Validate panics on impossible configurations; it guards the pipeline
// constructors, whose configs are produced by code — an invalid one there
// is a programming error. Layers accepting configs from outside the
// process should call Check instead.
func (c *Config) Validate() {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
}
