package progen

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/rewrite"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

// Mode selects how records are delivered to the pipelines under test. The
// oracle runs every arm under every mode: divergence in exactly one mode
// pinpoints the delivery layer (trace codec, chunk spill and gang ring,
// live stream) rather than the pipeline.
type Mode string

// Delivery modes. Replay and gang are the engine's two replay regimes, not
// switches: a resident engine always replays solo, and an engine bounded
// over a store gangs every trace group of a sweep.
const (
	ModeReplay Mode = "replay" // capture once, resident trace, solo replay cursors
	ModeLive   Mode = "live"   // step-by-step live emulation
	ModeGang   Mode = "gang"   // chunks spilled to a store, shared-window gang replay
)

// AllModes lists every delivery mode in canonical order.
func AllModes() []Mode { return []Mode{ModeReplay, ModeLive, ModeGang} }

// Arm is one point of the configuration matrix.
type Arm struct {
	Name string
	Job  sim.SimJob
}

// MGTEntries is the mini-graph table size used for extraction arms (the
// experiments' default).
const MGTEntries = 512

// Matrix returns the eight-arm configuration matrix for bench:
// {baseline, minigraph} × {hybrid, tage} × {none, delta}. The four
// minigraph arms share one TraceKey (and likewise the four baseline arms),
// so gang mode actually forms gangs. maxRecords bounds each simulation
// (0 = run to halt; generated programs always halt).
func Matrix(bench string, maxRecords int64) []Arm {
	arms := make([]Arm, 0, 8)
	for _, base := range []bool{true, false} {
		for _, pred := range []string{bpred.KindHybrid, bpred.KindTAGE} {
			for _, pf := range []string{prefetch.KindNone, prefetch.KindDelta} {
				cfg := uarch.Baseline()
				kind := "baseline"
				if !base {
					cfg = uarch.MiniGraph(true)
					kind = "minigraph"
				}
				if pred == bpred.KindTAGE {
					cfg.BPred = bpred.TageConfig()
				}
				if pf == prefetch.KindDelta {
					cfg.Prefetcher = prefetch.DefaultDelta()
				}
				cfg.MaxRecords = maxRecords
				name := fmt.Sprintf("%s/%s/%s", kind, pred, pf)
				cfg.Name = name
				job := sim.SimJob{
					Prepare:  sim.PrepareKey{Bench: bench, Input: workload.InputTrain},
					Baseline: base,
					Config:   cfg,
				}
				if !base {
					job.Policy = core.DefaultPolicy()
					job.Entries = MGTEntries
					job.Compress = true
				}
				arms = append(arms, Arm{Name: name, Job: job})
			}
		}
	}
	return arms
}

// Divergence describes one oracle failure with everything needed to
// reproduce it: the seed regenerates the program, the arm and mode name
// the configuration and delivery path.
type Divergence struct {
	Seed   int64
	Arm    string
	Mode   Mode
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("progen: DIVERGENCE seed=%d arm=%s mode=%s: %s (reproduce: mgdiff -seed %d)",
		d.Seed, d.Arm, d.Mode, d.Detail, d.Seed)
}

// Engines is the set of engines the oracle drives, one per delivery mode.
// Sharing one set across many seeds amortises nothing between seeds (keys
// embed the seed's name) but keeps engine construction out of the per-seed
// path and mirrors how a long-lived service would run.
type Engines struct {
	byMode map[Mode]*sim.Engine
}

// Chunk geometry of the gang-mode engine: small enough that a generated
// program's trace spans several chunks, behind the tightest window a gang
// can run in.
const (
	gangChunkRecords = 128
	gangChunkWindow  = 2
)

// NewEngines builds one engine per mode with the given worker-pool size.
// dir is scratch space for the store gang mode spills its chunks to; the
// caller owns and removes it.
func NewEngines(workers int, dir string) (*Engines, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return &Engines{byMode: map[Mode]*sim.Engine{
		ModeReplay: sim.New(workers),
		ModeLive:   sim.New(workers).WithLiveStream(true),
		ModeGang: sim.New(workers).WithStore(st).
			WithTraceChunkRecords(gangChunkRecords).WithTraceChunkWindow(gangChunkWindow),
	}}, nil
}

// reference is the emulator-side truth for one trace identity.
type reference struct {
	st *emu.FinalState
}

// DiffSeed generates seed's program and checks the full oracle for it:
//
//  1. Per arm × mode, the pipeline's retired-state digest must equal the
//     functional emulator's digest over the same binary, and the retired
//     record count must equal the emulator's.
//  2. Across modes, each arm's encoded outcome must be byte-identical —
//     live, resident replay and gang-over-spilled-chunks delivery must be
//     indistinguishable.
//  3. Across binaries, the rewritten program's final memory image must
//     equal the original's (the transparency claim; registers may
//     legitimately differ where rewriting elides dead interior writes).
//
// A nil error means the seed passed every check.
func DiffSeed(ctx context.Context, eng *Engines, seed int64, maxRecords int64) error {
	bench, err := RegisterSeed(seed)
	if err != nil {
		return err
	}
	arms := Matrix(bench, maxRecords)

	// Emulator references, one per trace identity (baseline + rewritten).
	refEng := eng.byMode[ModeReplay]
	pr, err := refEng.Prepare(ctx, sim.PrepareKey{Bench: bench, Input: workload.InputTrain})
	if err != nil {
		return fmt.Errorf("progen: seed %d: prepare: %w", seed, err)
	}
	limit := maxRecords
	if limit <= 0 {
		limit = math.MaxInt64
	}
	baseRef, err := emu.RunToCompletion(pr.Prog, nil, limit)
	if err != nil {
		return fmt.Errorf("progen: seed %d: baseline emu: %w", seed, err)
	}
	var mgRef *emu.FinalState
	for _, a := range arms {
		if a.Job.Baseline {
			continue
		}
		sel := core.Extract(pr.CFG, pr.Live, pr.Prof, a.Job.Policy, a.Job.Entries)
		res, err := rewrite.Rewrite(pr.Prog, sel, a.Job.Compress)
		if err != nil {
			return fmt.Errorf("progen: seed %d: rewrite: %w", seed, err)
		}
		mgt := core.NewMGT(res.Templates, sim.ExecParams(a.Job.Config))
		mgRef, err = emu.RunToCompletion(res.Prog, mgt, limit)
		if err != nil {
			return &Divergence{Seed: seed, Arm: a.Name, Mode: "emu",
				Detail: fmt.Sprintf("rewritten program faulted: %v", err)}
		}
		break // one rewrite serves all four minigraph arms (shared TraceKey)
	}
	if mgRef != nil {
		if baseRef.Halted != mgRef.Halted || baseRef.MemSum != mgRef.MemSum {
			return &Divergence{Seed: seed, Arm: "minigraph", Mode: "emu",
				Detail: fmt.Sprintf("transparency: halted %v vs %v, memsum %#x vs %#x",
					baseRef.Halted, mgRef.Halted, baseRef.MemSum, mgRef.MemSum)}
		}
	}

	refFor := func(a *Arm) *emu.FinalState {
		if a.Job.Baseline {
			return baseRef
		}
		return mgRef
	}

	// Run the whole matrix under each mode; the bounded engine forms a gang
	// per TraceKey (arms interleave over one traversal of spilled chunks).
	encoded := make(map[Mode][][]byte)
	for _, m := range AllModes() {
		jobs := make([]sim.SimJob, len(arms))
		for i := range arms {
			jobs[i] = arms[i].Job
		}
		outs, err := eng.byMode[m].RunEach(ctx, jobs, nil)
		if err != nil {
			return fmt.Errorf("progen: seed %d mode %s: %w", seed, m, err)
		}
		enc := make([][]byte, len(arms))
		for i, out := range outs {
			a := &arms[i]
			ref := refFor(a)
			if out.Result.RetiredDigest != uint64(ref.Digest) {
				return &Divergence{Seed: seed, Arm: a.Name, Mode: m,
					Detail: fmt.Sprintf("retired digest %#x, emulator digest %#x",
						out.Result.RetiredDigest, uint64(ref.Digest))}
			}
			if out.Result.Retired != ref.InstCount {
				return &Divergence{Seed: seed, Arm: a.Name, Mode: m,
					Detail: fmt.Sprintf("retired %d records, emulator executed %d",
						out.Result.Retired, ref.InstCount)}
			}
			if enc[i], err = sim.EncodeOutcome(out); err != nil {
				return fmt.Errorf("progen: seed %d: encode: %w", seed, err)
			}
		}
		encoded[m] = enc
	}

	// Cross-mode: every delivery path must produce byte-identical outcomes.
	first := AllModes()[0]
	for _, m := range AllModes()[1:] {
		for i := range arms {
			if !bytes.Equal(encoded[first][i], encoded[m][i]) {
				return &Divergence{Seed: seed, Arm: arms[i].Name, Mode: m,
					Detail: fmt.Sprintf("outcome differs from mode %s", first)}
			}
		}
	}
	return nil
}
