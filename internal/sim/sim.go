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
	"crypto/sha256"
	"encoding/binary"
	"slices"

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

// TraceKey identifies one recipe for a captured dynamic trace: the
// preparation plus extraction axes that produce the rewritten binary, and
// the record limit. The machine configuration is deliberately absent — the
// record stream is a pure function of the program and its mini-graph
// templates, so every arm of a configuration sweep over one rewrite shares
// one capture. That independence is what makes capture-once/replay-many
// sound, and the golden-invariance tests enforce it. Recipes that produce
// the same binary share its capture too (see BinaryID); stored segments,
// peer transfers and serving-tier placement stay keyed by TraceKey.
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

// BinaryID is the content identity of a simulated binary: SHA-256 over a
// canonical encoding of the program (every instruction field, the entry
// point and the data image in address order), its mini-graph templates
// (every field) and the record limit — everything the recorded stream and
// a pipeline run over it depend on, and nothing else (the program's Name
// and Symbols are presentation). Distinct recipes often produce one
// binary: on a small benchmark an MGT of 256 and one of 512 entries, or
// two serialization limits, select exactly the same mini-graphs. The
// engine keys traces and pipeline runs by BinaryID, so such recipes share
// a capture and, per machine, a run. A baseline key's binary is the
// prepared original with no templates.
type BinaryID [sha256.Size]byte

// binaryID computes the BinaryID of prog with templates, replayed up to
// limit records.
func binaryID(prog *isa.Program, templates []*core.Template, limit int64) BinaryID {
	h := sha256.New()
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	bit := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	flush := func() {
		h.Write(b)
		b = b[:0]
	}

	u(uint64(len(prog.Insts)))
	for _, in := range prog.Insts {
		b = append(b, byte(in.Op), byte(in.Ra), byte(in.Rb), byte(in.Rc))
		u(uint64(in.Imm))
		bit(in.UseImm)
		u(uint64(in.MGID))
		bit(in.TextRef)
		if len(b) >= 4096 {
			flush()
		}
	}
	u(uint64(prog.Entry))
	addrs := make([]isa.Addr, 0, len(prog.Data))
	for a := range prog.Data {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	u(uint64(len(addrs)))
	for _, a := range addrs {
		u(uint64(a))
		u(uint64(len(prog.Data[a])))
		flush()
		h.Write(prog.Data[a])
	}

	u(uint64(len(templates)))
	for _, t := range templates {
		u(uint64(len(t.Insns)))
		for _, ti := range t.Insns {
			b = append(b, byte(ti.Op), byte(ti.A.Kind), byte(ti.B.Kind))
			u(uint64(ti.A.Idx))
			u(uint64(ti.B.Idx))
			u(uint64(ti.Imm))
		}
		u(uint64(t.NumIn))
		u(uint64(t.OutIdx))
		u(uint64(t.MemIdx))
		u(uint64(t.BranchIdx))
	}
	u(uint64(limit))
	flush()

	var id BinaryID
	h.Sum(id[:0])
	return id
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
