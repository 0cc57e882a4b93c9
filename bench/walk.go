package main

import (
	"context"
	"errors"
	"fmt"
	"math"

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

// The walker drives one binary at a time through the same data path the
// engine takes, but on one goroutine and through public functions only:
// Build -> BuildCFG/ComputeLiveness -> ProfileProgram -> Extract -> Rewrite
// -> NewMGT -> CaptureWith -> (chunk encode -> store) -> reader -> pipeline
// -> outcome codec -> store. Set-up uses its front half, untraced, to get
// each binary's functional-emulator reference; the traced run walks all of
// it with a span at every layer boundary (the layer replay).

// prepared is the policy- and machine-independent part of a binary.
type prepared struct {
	prog *isa.Program
	cfg  *program.CFG
	live *program.Liveness
	prof *program.Profile
	last int // span id of the profile stage, for dependency edges
}

// binary is one simulated program image: the original for baseline specs,
// else the extraction + rewrite of its spec's policy axes.
type binary struct {
	job       sim.SimJob // the representative job that named the binary
	key       sim.TraceKey
	prog      *isa.Program
	templates []*core.Template
	sel       *core.Selection // nil for baseline
	dynInsts  int64
	last      int // span id of the last build stage
}

// emuRef is the functional emulator's verdict on a binary: what every
// timing simulation of it must retire.
type emuRef struct {
	Digest  uint64
	Retired int64
}

type walker struct {
	tr    *tracer
	preps map[sim.PrepareKey]*prepared
	bins  map[sim.TraceKey]*binary
}

func newWalker(tr *tracer) *walker {
	return &walker{tr: tr, preps: make(map[sim.PrepareKey]*prepared), bins: make(map[sim.TraceKey]*binary)}
}

// span runs fn inside a span on the layer-replay lane.
func (w *walker) span(name, arm string, parent, after int, fn func() error) (int, error) {
	id := w.tr.begin(name, arm, 0, parent, after)
	err := fn()
	w.tr.end(id)
	return id, err
}

func (w *walker) prepare(key sim.PrepareKey) (*prepared, error) {
	if p, ok := w.preps[key]; ok {
		return p, nil
	}
	b, ok := workload.ByName(key.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", key.Bench)
	}
	p := &prepared{}
	id, _ := w.span("workload.build", key.Bench, -1, -1, func() error {
		p.prog = b.Build(key.Input)
		return nil
	})
	id, _ = w.span("program.cfg_liveness", key.Bench, -1, id, func() error {
		p.cfg = program.BuildCFG(p.prog, nil)
		p.live = program.ComputeLiveness(p.cfg)
		return nil
	})
	id, err := w.span("emu.profile", key.Bench, -1, id, func() error {
		var err error
		p.prof, err = emu.ProfileProgram(p.prog, nil, sim.ProfileLimit)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", key.Bench, err)
	}
	p.last = id
	w.preps[key] = p
	return p, nil
}

// binaryFor builds (once) the binary a job simulates.
func (w *walker) binaryFor(job sim.SimJob) (*binary, error) {
	key := job.Key().TraceKey()
	if b, ok := w.bins[key]; ok {
		return b, nil
	}
	p, err := w.prepare(job.Prepare)
	if err != nil {
		return nil, err
	}
	bin := &binary{job: job, key: key, prog: p.prog, dynInsts: p.prof.DynInsts, last: p.last}
	if !key.Baseline {
		bench := job.Prepare.Bench
		id, _ := w.span("core.extract", bench, -1, p.last, func() error {
			bin.sel = core.Extract(p.cfg, p.live, p.prof, key.Policy, key.Entries)
			return nil
		})
		id, err = w.span("rewrite.rewrite", bench, -1, id, func() error {
			res, err := rewrite.Rewrite(p.prog, bin.sel, key.Compress)
			if err != nil {
				return err
			}
			bin.prog, bin.templates = res.Prog, res.Templates
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: rewrite: %w", bench, err)
		}
		bin.last = id
	}
	w.bins[key] = bin
	return bin, nil
}

func (b *binary) mgt(cfg uarch.Config) *core.MGT {
	if b.key.Baseline {
		return nil
	}
	return core.NewMGT(b.templates, sim.ExecParams(cfg))
}

// reference runs the functional emulator over the binary. Nops (the
// residue of nop-fill rewriting) execute but never enter the pipeline's
// back end, so they are left out of the retired count.
func (w *walker) reference(job sim.SimJob) (emuRef, error) {
	bin, err := w.binaryFor(job)
	if err != nil {
		return emuRef{}, err
	}
	limit := bin.key.Limit
	if limit <= 0 {
		limit = math.MaxInt64
	}
	m := emu.NewMachine(bin.prog, bin.mgt(job.Config))
	var rec emu.Record
	var ref emuRef
	for !m.Halted && m.InstCount < limit {
		if err := m.Step(&rec); err != nil {
			return emuRef{}, fmt.Errorf("%s: emulate: %w", job.Prepare.Bench, err)
		}
		if rec.Op != isa.OpNop {
			ref.Retired++
		}
	}
	ref.Digest = uint64(m.Digest)
	return ref, nil
}

// references emulates every distinct binary among specs.
func references(specs []serve.JobSpec) (map[sim.TraceKey]emuRef, error) {
	w := newWalker(nil)
	refs := make(map[sim.TraceKey]emuRef)
	for _, js := range specs {
		job, err := js.Resolve()
		if err != nil {
			return nil, err
		}
		key := job.Key().TraceKey()
		if _, ok := refs[key]; ok {
			continue
		}
		if refs[key], err = w.reference(job); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// chunkGeometry is the engine chunk policy a workload runs under, so the
// layer replay prices chunks of the size the workload actually moves.
type chunkGeometry struct {
	Records int64 // 0: trace package default
	Window  int   // 0: unbounded (fully resident)
}

// sampledChunks is how many chunks of each trace go through the encode ->
// store -> fetch -> decode path in the layer replay; the rest stay
// resident. Per-chunk costs are then scaled by the round's real counts.
const sampledChunks = 8

var errKeepResident = errors.New("not sampled")

// chunkProbe is the timing ChunkSink and ChunkSource of one captured
// trace: sampled chunks are framed (raw and DEFLATE), stored, and later
// faulted back, each step under its own span.
type chunkProbe struct {
	w      *walker
	st     *store.Store
	key    sim.TraceKey
	stride int64
	parent int // span the current chunk work happens inside

	rawBytes, flateBytes, fetched int64
	chunks                        int
}

func (c *chunkProbe) SealChunk(index, rows int64, data []byte, crc uint32) error {
	if index%c.stride != 0 {
		return errKeepResident
	}
	kb, err := sim.EncodeTraceChunkKey(c.key, index)
	if err != nil {
		return err
	}
	var frame []byte
	c.w.span("trace.encode_chunk_raw", "", c.parent, -1, func() error {
		frame = trace.EncodeChunk(index, data, false)
		return nil
	})
	c.w.span("trace.encode_chunk_flate", "", c.parent, -1, func() error {
		c.flateBytes += int64(len(trace.EncodeChunk(index, data, true)))
		return nil
	})
	c.rawBytes += int64(len(frame))
	c.chunks++
	_, err = c.w.span("store.put_chunk", "", c.parent, -1, func() error { return c.st.Put(kb, frame) })
	return err
}

func (c *chunkProbe) FetchChunk(index int64) ([]byte, error) {
	kb, err := sim.EncodeTraceChunkKey(c.key, index)
	if err != nil {
		return nil, err
	}
	fault := c.w.tr.begin("trace.fault", "", 0, c.parent, -1)
	defer c.w.tr.end(fault)
	var frame, raw []byte
	_, err = c.w.span("store.get_chunk", "", fault, -1, func() error {
		var ok bool
		if frame, ok = c.st.Get(kb); !ok {
			return fmt.Errorf("chunk %d not in the probe store", index)
		}
		c.fetched += int64(len(frame))
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = c.w.span("trace.decode_chunk", "", fault, -1, func() error {
		var err error
		_, raw, err = trace.DecodeChunk(frame)
		return err
	})
	return raw, err
}

// armSample is what the layer replay learned from one simulated arm.
type armSample struct {
	Result     *uarch.Result
	Selection  *core.Selection
	Mallocs    uint64
	OutcomeLen int
}

// captured is one binary's trace plus the probe its sampled chunks fault
// through.
type captured struct {
	bin   *binary
	tr    *trace.Trace
	probe *chunkProbe
	span  int
}

// capture records the binary's dynamic stream under the given geometry.
func (w *walker) capture(ctx context.Context, bin *binary, geo chunkGeometry, st *store.Store) (*captured, error) {
	bench := bin.job.Prepare.Bench
	var mgt *core.MGT
	id, _ := w.span("core.mgt_build", bench, -1, bin.last, func() error {
		mgt = bin.mgt(bin.job.Config)
		return nil
	})
	records := geo.Records
	if records <= 0 {
		records = trace.DefaultChunkRecords
	}
	stride := bin.dynInsts / records / sampledChunks
	if stride < 1 {
		stride = 1
	}
	c := &captured{bin: bin}
	opts := trace.CaptureOptions{ChunkRecords: geo.Records, Hint: bin.dynInsts}
	c.span = w.tr.begin("trace.capture", bench, 0, -1, id)
	if st != nil {
		c.probe = &chunkProbe{w: w, st: st, key: bin.key, stride: stride, parent: c.span}
		opts.Sink = c.probe
	}
	var err error
	c.tr, err = trace.CaptureWith(ctx, bin.prog, mgt, bin.key.Limit, opts)
	w.tr.end(c.span)
	if err != nil {
		return nil, err
	}
	if c.probe != nil {
		c.tr.BindSource(c.probe)
	}
	return c, nil
}

// within tells the probe which span the coming chunk faults happen inside.
func (c *captured) within(id int) {
	if c.probe != nil {
		c.probe.parent = id
	}
}

// drain walks the whole trace through a solo reader, and then through a
// two-cursor gang reader, doing nothing with the records: decode speed
// alone, the floor under every replay.
func (w *walker) drain(c *captured, geo chunkGeometry) (records int64, err error) {
	bench := c.bin.job.Prepare.Bench
	var rec emu.Record
	id := w.tr.begin("trace.reader_drain", bench, 0, -1, c.span)
	c.within(id)
	rd := trace.NewReaderWindowed(c.tr, c.bin.prog, 0, geo.Window)
	for rd.NextInto(&rec) {
		records++
	}
	w.tr.end(id)
	if err := rd.Err(); err != nil {
		return 0, fmt.Errorf("%s: drain: %w", bench, err)
	}

	id = w.tr.begin("trace.gang_drain", bench, 0, -1, c.span)
	c.within(id)
	g := trace.NewGangReaderWindowed(c.tr, c.bin.prog, 0, geo.Window)
	a, b := g.Cursor(0), g.Cursor(0)
	// Lockstep quanta well inside the shared ring, as the gang scheduler
	// paces its arms: the second cursor is served by copy.
	for live := true; live; {
		live = false
		for _, cur := range []*trace.GangCursor{a, b} {
			for i := 0; i < 1024 && cur.NextInto(&rec); i++ {
				live = true
			}
		}
	}
	w.tr.end(id)
	if err := errors.Join(a.Err(), b.Err()); err != nil {
		return 0, fmt.Errorf("%s: gang drain: %w", bench, err)
	}
	return records, nil
}

// simulate replays the captured trace through the pipeline for one arm and
// round-trips the outcome through the codec and the store.
func (w *walker) simulate(ctx context.Context, c *captured, js serve.JobSpec, geo chunkGeometry, st *store.Store) (*armSample, error) {
	job, err := js.Resolve()
	if err != nil {
		return nil, err
	}
	if job.Key().TraceKey() != c.bin.key {
		return nil, fmt.Errorf("arm %q is not an arm of the captured binary", js.Arm)
	}
	cfg := job.Key().Config
	var mgt *core.MGT
	id, _ := w.span("core.mgt_build", js.Arm, -1, c.span, func() error {
		mgt = c.bin.mgt(cfg)
		return nil
	})
	s := &armSample{Selection: c.bin.sel}
	var run int
	s.Mallocs, _ = memDelta(func() {
		run = w.tr.begin("uarch.run", js.Arm, 0, -1, id)
		c.within(run)
		rd := trace.NewReaderWindowed(c.tr, c.bin.prog, cfg.MaxRecords, geo.Window)
		s.Result, err = uarch.NewWithSource(cfg, mgt, rd).Run(ctx)
		w.tr.end(run)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", js.Arm, err)
	}
	if st == nil {
		return s, nil
	}

	out := &sim.Outcome{Result: s.Result, Selection: s.Selection}
	kb, err := sim.EncodeSimKey(job.Key())
	if err != nil {
		return nil, err
	}
	var data []byte
	id, err = w.span("sim.encode_outcome", js.Arm, -1, run, func() error {
		var err error
		data, err = sim.EncodeOutcome(out)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.OutcomeLen = len(data)
	id, err = w.span("store.put_outcome", js.Arm, -1, id, func() error { return st.Put(kb, data) })
	if err != nil {
		return nil, err
	}
	id, err = w.span("store.get_outcome", js.Arm, -1, id, func() error {
		got, ok := st.Get(kb)
		if !ok {
			return fmt.Errorf("%s: outcome missing from the probe store", js.Arm)
		}
		data = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = w.span("sim.decode_outcome", js.Arm, -1, id, func() error {
		_, err := sim.DecodeOutcome(data)
		return err
	})
	return s, err
}
