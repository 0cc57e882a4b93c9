package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/store"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// ProfileLimit bounds the dynamic instructions profiled per preparation
// (the experiment harness's historical limit). Profiling outside the
// engine should use the same cap so identical programs select identical
// mini-graphs regardless of which path prepared them.
const ProfileLimit = 4_000_000

// Engine is a concurrent, memoizing simulation job engine. Submissions
// with equal canonical keys are deduplicated single-flight: the first
// submitter runs the job, every concurrent or later submitter receives the
// cached result. Actual compute runs on a worker pool of bounded size;
// waiting on a duplicate never occupies a worker slot.
//
// Simulations are trace-driven: the functional emulation of a program is
// captured once per binary into an immutable structure-of-arrays trace,
// and every machine configuration swept over that binary replays the
// shared trace through its own zero-allocation cursor — concurrently, with
// no locking. A binary is its content (BinaryID), not the recipe that
// produced it: each TraceKey (preparation + extraction axes + record
// limit) is rewritten once and becomes an alias of its binary, so policies
// that select the same mini-graphs share one capture, and one pipeline run
// per machine. With a persistent store attached, traces round-trip through
// disk (one segment file a trace: its chunks, then its manifest as the
// last record, published under the TraceKey that sourced it) so cold
// processes replay without ever emulating. Replay is the engine's only
// way to run an arm; live emulation (uarch.New over the same binary) is the
// reference it is tested against, not a mode.
//
// An Engine is safe for concurrent use and is meant to be shared across
// experiments so cross-figure common work (benchmark preparations, the
// shared baseline simulation, captured traces) runs exactly once per
// process.
type Engine struct {
	workers int
	sem     chan struct{}
	store   *store.Store

	// traceFetch, when set, is the peer tier: consulted for a trace that is
	// neither in memory nor in the store before falling back to capturing
	// (see WithTraceFetcher). The serving tier uses it to move traces
	// between workers when membership changes re-route an arm.
	traceFetch func(ctx context.Context, key TraceKey) (*trace.Trace, error)

	// Chunked-trace policy (see WithTraceChunkRecords and
	// WithTraceChunkWindow). chunkRecords overrides the capture chunk
	// geometry (0: trace package default); chunkWindow bounds each replay
	// reader's resident chunks of a trace held spilled behind the store
	// (0: unbounded — traces stay fully resident in memory).
	chunkRecords int64
	chunkWindow  int

	mu     sync.Mutex
	preps  map[PrepareKey]*call[*Prepared]
	sims   map[SimKey]*call[*Outcome]
	traces map[TraceKey]*call[*capturedTrace] // recipe -> its binary (an alias)
	bins   map[BinaryID]*call[*trace.Trace]   // one trace per binary
	runs   map[runKey]*call[*uarch.Result]    // one pipeline run per (binary, machine)

	// Captured traces are the one memoization whose values are large (a
	// full-run capture is tens of MB), so unlike outcomes they are LRU-
	// bounded, per binary: traceSizes/traceOrder track completed entries
	// and evict the least recently touched beyond traceMaxBytes, dropping
	// every alias of the victim with it (aliases lists them; an alias that
	// ReleaseTrace unlisted stays, holding no trace). Evicting only
	// drops the map references — in-flight replays hold the immutable trace
	// directly, and a re-request recaptures (or reloads from the store).
	// Nothing else outlives a replay: the memoized Outcome of a finished
	// arm shares no memory with its pipeline or reader
	// (uarch.Pipeline.Finish), so traceMaxBytes bounds the trace bytes the
	// heap holds, cache slack and all (trace.ResidentBytes counts capacity)
	// — plus the traces of the at most `workers` replays still running over
	// an evicted entry.
	traceMaxBytes int64
	traceResident int64
	traceSizes    map[BinaryID]int64
	traceOrder    []BinaryID // least recently touched first
	aliases       map[BinaryID][]TraceKey

	prepRuns      atomic.Int64
	prepHits      atomic.Int64
	simRuns       atomic.Int64
	simHits       atomic.Int64
	simBinaryHits atomic.Int64
	storeHits     atomic.Int64
	storeMisses   atomic.Int64
	storePuts     atomic.Int64

	traceCaptures    atomic.Int64
	traceHits        atomic.Int64
	traceStoreHits   atomic.Int64
	traceBytes       atomic.Int64
	tracePeerHits    atomic.Int64
	tracePeerRejects atomic.Int64

	chunkFaults     atomic.Int64
	chunkEvictions  atomic.Int64
	chunkWindowPeak atomic.Int64 // max over any single reader window
	chunkRecaptures atomic.Int64

	// Front-end counters summed over pipeline simulations executed
	// in-process (store and cache hits do not re-count).
	feCondBranches atomic.Int64
	feCondMispreds atomic.Int64
	feMispredicts  atomic.Int64
	fePrefIssued   atomic.Int64
	fePrefUseful   atomic.Int64
	fePrefLate     atomic.Int64
}

// capturedTrace is one TraceKey's alias of its binary: the rewritten
// program (or the prepared original for baseline jobs), the selection and
// templates that produced it, and the binary's content identity, under
// which the engine holds the one recorded dynamic stream (bins) that every
// alias replays. Everything here is immutable and shared by every
// replaying arm; per-arm state (the MGT with its config-specific
// schedules, the replay cursor) is built fresh per simulation. Aliases of
// one binary differ only in their selection, which is why an outcome is
// still memoized per SimKey.
type capturedTrace struct {
	prog      *isa.Program
	templates []*core.Template
	sel       *core.Selection
	id        BinaryID
}

// runKey identifies one pipeline run: a binary and a canonical machine.
// Every SimKey that maps to it gets the same uarch.Result.
type runKey struct {
	bin BinaryID
	cfg uarch.Config
}

// Stats is a point-in-time snapshot of the engine's cache counters. Runs
// count jobs computed in-process (cache misses that entered a compute
// function); Hits count submissions served from the in-memory cache
// (including waits on an in-flight duplicate). When a persistent store is
// attached, StoreHits of those SimRuns were answered from disk without
// touching the pipeline, and SimBinaryHits of them were answered by the
// pipeline run of another SimKey over the same binary and machine (two
// policies that select the same mini-graphs) — SimRuns−StoreHits−
// SimBinaryHits (PipelineSims) is the number of timing simulations
// actually executed.
type Stats struct {
	PrepareRuns   int64 `json:"prepare_runs"`
	PrepareHits   int64 `json:"prepare_hits"`
	SimRuns       int64 `json:"sim_runs"`
	SimHits       int64 `json:"sim_hits"`
	SimBinaryHits int64 `json:"sim_binary_hits,omitempty"`
	StoreHits     int64 `json:"store_hits,omitempty"`
	StoreMisses   int64 `json:"store_misses,omitempty"`
	StorePuts     int64 `json:"store_puts,omitempty"`

	// Trace-cache counters, per binary (BinaryID), not per TraceKey: two
	// recipes that rewrite a benchmark into the same binary share one
	// trace. TraceCaptures counts functional emulations actually executed
	// in-process, one per binary sourced by capture; TraceReplayHits counts
	// simulations that replayed a trace another arm had already produced
	// (in-memory hit, under its own TraceKey or an alias); TraceStoreHits
	// counts traces loaded from the persistent store instead of emulating.
	// TraceBytes is the cumulative size of captured/loaded trace data. In a
	// multi-arm sweep over one binary, TraceCaptures stays at one while
	// TraceReplayHits grows with the arm count — emulation happens exactly
	// once per binary per process.
	TraceCaptures   int64 `json:"trace_captures"`
	TraceReplayHits int64 `json:"trace_replay_hits"`
	TraceStoreHits  int64 `json:"trace_store_hits,omitempty"`
	TraceBytes      int64 `json:"trace_bytes,omitempty"`

	// Chunk-residency counters. TraceChunkFaults counts spilled chunks
	// faulted in through reader windows (and TraceChunkEvictions the
	// window evictions that made room); TraceChunkWindowPeakBytes is the
	// largest resident footprint any one reader's window reached;
	// TraceResidentBytes is the chunk payload currently held by the
	// in-memory trace cache (what the LRU budget accounts);
	// TraceChunkRecaptures counts replays that lost a chunk mid-flight
	// (store eviction, vanished peer) and recovered by re-capturing.
	TraceChunkFaults          int64 `json:"trace_chunk_faults,omitempty"`
	TraceChunkEvictions       int64 `json:"trace_chunk_evictions,omitempty"`
	TraceChunkWindowPeakBytes int64 `json:"trace_chunk_window_peak_bytes,omitempty"`
	TraceResidentBytes        int64 `json:"trace_resident_bytes,omitempty"`
	TraceChunkRecaptures      int64 `json:"trace_chunk_recaptures,omitempty"`

	// Peer-transfer counters (see WithTraceFetcher). TracePeerHits counts
	// traces adopted from a peer instead of being captured or re-captured;
	// TracePeerRejects counts fetch attempts that failed or returned a
	// trace with a damaged chunk (CRC mismatch) and fell back to capturing.
	TracePeerHits    int64 `json:"trace_peer_hits,omitempty"`
	TracePeerRejects int64 `json:"trace_peer_rejects,omitempty"`

	// GangsFormed, GangArms and GangSharedRecords always read 0: every arm
	// replays on its own cursor, and no gang is formed. They stay only
	// because the bench module still reads them; the re-baseline of
	// ROADMAP item 5(a) drops them together with their ledger metrics.
	// /statsz does not carry them.
	GangsFormed       int64 `json:"-"`
	GangArms          int64 `json:"-"`
	GangSharedRecords int64 `json:"-"`

	// Front-end counters, summed over the uarch.Results of pipeline
	// simulations executed in-process (store hits and memoized results do
	// not re-count). Prefetch counters stay zero until a job enables a
	// prefetcher.
	CondBranches    int64 `json:"cond_branches"`
	CondMispredicts int64 `json:"cond_mispredicts"`
	Mispredicts     int64 `json:"branch_mispredicts"`
	PrefetchIssued  int64 `json:"prefetch_issued"`
	PrefetchUseful  int64 `json:"prefetch_useful"`
	PrefetchLate    int64 `json:"prefetch_late"`
}

// PipelineSims is the number of timing simulations the engine actually
// executed: in-process cache misses answered neither by the persistent
// store nor by another key's run over the same binary and machine.
func (s Stats) PipelineSims() int64 { return s.SimRuns - s.StoreHits - s.SimBinaryHits }

// New builds an engine with the given worker-pool size (0 = GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:       workers,
		sem:           make(chan struct{}, workers),
		preps:         make(map[PrepareKey]*call[*Prepared]),
		sims:          make(map[SimKey]*call[*Outcome]),
		traces:        make(map[TraceKey]*call[*capturedTrace]),
		bins:          make(map[BinaryID]*call[*trace.Trace]),
		runs:          make(map[runKey]*call[*uarch.Result]),
		traceMaxBytes: DefaultTraceCacheBytes,
		traceSizes:    make(map[BinaryID]int64),
		aliases:       make(map[BinaryID][]TraceKey),
	}
}

// DefaultTraceCacheBytes bounds the in-memory captured-trace cache
// (~10 benchSubset-sized full-run traces). A long-lived service sweeping
// many distinct binaries re-captures (or store-loads) cold traces instead
// of growing without bound.
const DefaultTraceCacheBytes int64 = 256 << 20

// WithTraceCacheBytes overrides the in-memory trace cache budget
// (<= 0 restores the default). Set before submitting jobs; e is returned
// for chaining.
func (e *Engine) WithTraceCacheBytes(n int64) *Engine {
	if n <= 0 {
		n = DefaultTraceCacheBytes
	}
	e.traceMaxBytes = n
	return e
}

// WithTraceChunkRecords overrides the records-per-chunk geometry of
// captures (rounded up to a power of two; <= 0 restores the trace
// package default of ~64Ki rows). Geometry is storage layout only — it
// can never change a replayed record — and exists mainly so tests can
// cross many chunk boundaries cheaply. Set before submitting jobs; e is
// returned for chaining.
func (e *Engine) WithTraceChunkRecords(n int64) *Engine {
	if n < 0 {
		n = 0
	}
	e.chunkRecords = n
	return e
}

// WithTraceChunkWindow bounds each replay reader's resident chunks to n
// (<= 0: unbounded, the fully resident behavior). With a store attached
// and a bounded window, every trace — captured, loaded or fetched from a
// peer — is held spilled once its segment is published, and every arm's
// replay faults its chunks back in on demand through its own cursor, in
// n × chunk bytes. Reports are byte-identical either way. Set before
// submitting jobs; e is returned for chaining.
func (e *Engine) WithTraceChunkWindow(n int) *Engine {
	if n < 0 {
		n = 0
	}
	e.chunkWindow = n
	return e
}

// boundedReplay reports which of the engine's two replay regimes is in
// force: resident (false — a trace lives whole in the in-memory LRU) or
// spilled (true — a trace whose segment the store holds is kept as a
// manifest over it, and readers fault chunks in through the window).
func (e *Engine) boundedReplay() bool { return e.store != nil && e.chunkWindow > 0 }

// noteWindow folds one finished reader's chunk-window activity into the
// engine counters.
func (e *Engine) noteWindow(ws trace.WindowStats) {
	if ws == (trace.WindowStats{}) {
		return
	}
	e.chunkFaults.Add(ws.Faults)
	e.chunkEvictions.Add(ws.Evictions)
	for {
		cur := e.chunkWindowPeak.Load()
		if ws.PeakBytes <= cur || e.chunkWindowPeak.CompareAndSwap(cur, ws.PeakBytes) {
			break
		}
	}
}

// touchTrace marks binary id's trace as recently used, records tk as one
// of its aliases, and evicts the least recently touched completed traces
// beyond the byte budget, each with its aliases. The binary just touched
// is never evicted, so a working set larger than the budget degrades to
// capture-per-sweep rather than thrashing mid-sweep arms.
func (e *Engine) touchTrace(tk TraceKey, id BinaryID, size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.bins[id]; !ok {
		return // evicted or canceled while we were completing
	}
	if _, tracked := e.traceSizes[id]; tracked {
		e.traceOrder = append(slices.DeleteFunc(e.traceOrder, func(b BinaryID) bool { return b == id }), id)
	} else {
		e.traceSizes[id] = size
		e.traceResident += size
		e.traceOrder = append(e.traceOrder, id)
	}
	// Only a completed alias is listed: an entry in flight was created
	// after this binary's last eviction and is listed when it completes.
	if a, ok := e.traces[tk]; ok && isDone(a) && !slices.Contains(e.aliases[id], tk) {
		e.aliases[id] = append(e.aliases[id], tk)
	}
	for e.traceResident > e.traceMaxBytes && len(e.traceOrder) > 1 {
		e.dropBinary(e.traceOrder[0])
	}
}

// dropBinary forgets binary id's trace and every TraceKey aliased to it,
// so the next ask for any of them rewrites and re-sources. Called with
// e.mu held.
func (e *Engine) dropBinary(id BinaryID) {
	delete(e.bins, id)
	if size, ok := e.traceSizes[id]; ok {
		e.traceResident -= size
		delete(e.traceSizes, id)
		e.traceOrder = slices.DeleteFunc(e.traceOrder, func(b BinaryID) bool { return b == id })
	}
	for _, tk := range e.aliases[id] {
		delete(e.traces, tk)
	}
	delete(e.aliases, id)
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// WithStore attaches a persistent result store: Simulate consults it
// before computing and writes through after. Attach before submitting jobs
// (the field is not synchronized); e is returned for chaining. A nil store
// detaches.
func (e *Engine) WithStore(s *store.Store) *Engine {
	e.store = s
	return e
}

// Store returns the attached persistent store (nil if none).
func (e *Engine) Store() *store.Store { return e.store }

// WithTraceFetcher installs the peer tier: a hook consulted when a
// simulation needs a trace that is neither memoized in memory nor present
// in the store. f returns the trace as a manifest over a ChunkSource
// (trace.FromManifest) or an error; a (nil, nil) return means "no source
// available" and is not counted. What f returns crossed a trust boundary
// and is adopted exactly as a store load is: every chunk is CRC-verified
// against the manifest before the first record replays, any damage counts
// as a reject and the engine falls back to capturing — never to a wrong
// replay — and an adopted trace is written through to the store. Set
// before submitting jobs (the field is not synchronized); e is returned
// for chaining.
func (e *Engine) WithTraceFetcher(f func(ctx context.Context, key TraceKey) (*trace.Trace, error)) *Engine {
	e.traceFetch = f
	return e
}

// memoTrace returns the completed in-memory trace of key's binary, if
// any, whichever TraceKey sourced it. A capture in flight does not count,
// so a peer asking mid-capture simply falls back to its own sources.
func (e *Engine) memoTrace(key TraceKey) (*trace.Trace, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.traces[key]
	if !ok || !isDone(a) || a.err != nil {
		return nil, false
	}
	c, ok := e.bins[a.val.id] // the key resolves through its alias
	if !ok || !isDone(c) || c.err != nil || c.val == nil {
		return nil, false
	}
	return c.val, true
}

// storedManifest is the one lookup of key's manifest in the attached
// store — the last record of the trace's segment, under the trace key: the
// bytes as stored and the manifest they decode to. A missing, damaged or
// stale record is a miss.
func (e *Engine) storedManifest(key TraceKey) ([]byte, trace.Manifest, bool) {
	if e.store == nil {
		return nil, trace.Manifest{}, false
	}
	kb, err := EncodeTraceKey(key)
	if err != nil {
		return nil, trace.Manifest{}, false
	}
	data, ok := e.store.GetRecord(kb, -1, kb)
	if !ok {
		return nil, trace.Manifest{}, false
	}
	m, err := trace.DecodeManifest(data)
	return data, m, err == nil
}

// storedChunk is the one lookup of a chunk of key's trace in the attached
// store — record index of the trace's segment, under the chunk's key: the
// frame as stored and the raw rows it decodes to (frame-verified; the
// caller still checks them against its manifest).
func (e *Engine) storedChunk(key TraceKey, index int64) (frame, raw []byte, err error) {
	if e.store == nil || index < 0 { // GetRecord reads a negative index as the last record
		return nil, nil, fmt.Errorf("sim: trace chunk %d not in store", index)
	}
	seg, err := EncodeTraceKey(key)
	if err != nil {
		return nil, nil, err
	}
	kb, err := EncodeTraceChunkKey(key, index)
	if err != nil {
		return nil, nil, err
	}
	frame, ok := e.store.GetRecord(seg, int(index), kb)
	if !ok {
		return nil, nil, fmt.Errorf("sim: trace chunk %d not in store", index)
	}
	idx, raw, err := trace.DecodeChunk(frame)
	if err != nil {
		return nil, nil, err
	}
	if idx != index {
		return nil, nil, fmt.Errorf("sim: trace chunk record %d carries index %d", index, idx)
	}
	return frame, raw, nil
}

// TraceManifest returns the encoded chunk manifest (trace manifest codec)
// for key from the in-memory trace cache or the attached store. Peers
// fetch the manifest first, then stream the chunks it names.
func (e *Engine) TraceManifest(key TraceKey) ([]byte, bool) {
	if tr, ok := e.memoTrace(key); ok {
		return trace.EncodeManifest(tr.Manifest()), true
	}
	data, _, ok := e.storedManifest(key)
	return data, ok
}

// TraceChunk returns the encoded frame (trace chunk codec) of chunk
// `index` of key's trace, from the in-memory trace cache or the attached
// store. A missing or damaged chunk is a miss for that chunk only — the
// peer protocol rejects and re-sources chunks individually.
func (e *Engine) TraceChunk(key TraceKey, index int64) ([]byte, bool) {
	if tr, ok := e.memoTrace(key); ok {
		if raw, err := tr.ChunkPayload(index); err == nil {
			return trace.EncodeChunk(index, raw, false), true
		}
	}
	frame, _, err := e.storedChunk(key, index)
	return frame, err == nil
}

// storeChunkIO is the ChunkSource of a trace held spilled behind the
// engine's store: replays fault its chunks back in from the records of the
// trace's published segment. Safe for concurrent use (the store is).
type storeChunkIO struct {
	e  *Engine
	tk TraceKey
}

func (s *storeChunkIO) FetchChunk(index int64) ([]byte, error) {
	_, raw, err := s.e.storedChunk(s.tk, index)
	return raw, err
}

// appendRecord adds one record to the segment w is staging.
func (e *Engine) appendRecord(w *store.SegmentWriter, key, value []byte) error {
	err := w.Append(key, value)
	if err == nil {
		e.storePuts.Add(1)
	}
	return err
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	resident := e.traceResident
	e.mu.Unlock()
	return Stats{
		PrepareRuns:      e.prepRuns.Load(),
		PrepareHits:      e.prepHits.Load(),
		SimRuns:          e.simRuns.Load(),
		SimHits:          e.simHits.Load(),
		SimBinaryHits:    e.simBinaryHits.Load(),
		StoreHits:        e.storeHits.Load(),
		StoreMisses:      e.storeMisses.Load(),
		StorePuts:        e.storePuts.Load(),
		TraceCaptures:    e.traceCaptures.Load(),
		TraceReplayHits:  e.traceHits.Load(),
		TraceStoreHits:   e.traceStoreHits.Load(),
		TraceBytes:       e.traceBytes.Load(),
		TracePeerHits:    e.tracePeerHits.Load(),
		TracePeerRejects: e.tracePeerRejects.Load(),

		TraceChunkFaults:          e.chunkFaults.Load(),
		TraceChunkEvictions:       e.chunkEvictions.Load(),
		TraceChunkWindowPeakBytes: e.chunkWindowPeak.Load(),
		TraceResidentBytes:        resident,
		TraceChunkRecaptures:      e.chunkRecaptures.Load(),

		CondBranches:    e.feCondBranches.Load(),
		CondMispredicts: e.feCondMispreds.Load(),
		Mispredicts:     e.feMispredicts.Load(),
		PrefetchIssued:  e.fePrefIssued.Load(),
		PrefetchUseful:  e.fePrefUseful.Load(),
		PrefetchLate:    e.fePrefLate.Load(),
	}
}

// noteFrontend folds one executed simulation's front-end counters into the
// engine totals.
func (e *Engine) noteFrontend(res *uarch.Result) {
	e.feCondBranches.Add(res.CondBranches)
	e.feCondMispreds.Add(res.CondMispredicts)
	e.feMispredicts.Add(res.Mispredicts)
	e.fePrefIssued.Add(res.PrefetchIssued)
	e.fePrefUseful.Add(res.PrefetchUseful)
	e.fePrefLate.Add(res.PrefetchLate)
}

// call is one single-flight computation.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// isDone reports whether c has completed. Reading c.val or c.err is
// race-free only after it has.
func isDone[T any](c *call[T]) bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// acquire takes a worker slot, or fails if ctx is done first.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// singleflight runs compute under key in m exactly once. Duplicate callers
// wait for the leader (or their own ctx). A result carrying a context
// error is evicted from the cache, and waiters whose own context is still
// live retry it: one caller's cancellation must not fail an unrelated
// caller that happened to share the key. A result that lost a spilled
// chunk (trace.ErrChunkUnavailable) is evicted too, but returned to its
// waiters: each recovers by re-sourcing the trace and asking again, and
// must not find the stale failure then. hits may be nil, and so may
// onWait, which runs before a caller takes or waits for another caller's
// result: a caller holding a worker slot it means to compute with gives
// the slot up there.
func singleflight[K comparable, T any](
	e *Engine, ctx context.Context, m map[K]*call[T], key K,
	hits *atomic.Int64, onWait func(), compute func(context.Context) (T, error),
) (T, error) {
	for {
		e.mu.Lock()
		c, ok := m[key]
		if !ok {
			c = &call[T]{done: make(chan struct{})}
			m[key] = c
			e.mu.Unlock()

			c.val, c.err = compute(ctx)
			if isCtxErr(c.err) || errors.Is(c.err, trace.ErrChunkUnavailable) {
				e.mu.Lock()
				if m[key] == c {
					delete(m, key)
				}
				e.mu.Unlock()
			}
			close(c.done)
			return c.val, c.err
		}
		e.mu.Unlock()
		if hits != nil {
			hits.Add(1)
		}
		if onWait != nil {
			onWait()
		}
		select {
		case <-c.done:
			if isCtxErr(c.err) && ctx.Err() == nil {
				// The leader was canceled by its own context and the entry
				// evicted; this caller is still live, so take over.
				continue
			}
			return c.val, c.err
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Prepare builds (or returns the cached) preparation for key: the
// benchmark's program, CFG, liveness, and basic-block frequency profile.
func (e *Engine) Prepare(ctx context.Context, key PrepareKey) (*Prepared, error) {
	return singleflight(e, ctx, e.preps, key, &e.prepHits, nil,
		func(ctx context.Context) (*Prepared, error) {
			e.prepRuns.Add(1)
			if err := e.acquire(ctx); err != nil {
				return nil, err
			}
			defer e.release()
			b, ok := workload.ByName(key.Bench)
			if !ok {
				return nil, fmt.Errorf("sim: unknown benchmark %q", key.Bench)
			}
			p := b.Build(key.Input)
			g := program.BuildCFG(p, nil)
			lv := program.ComputeLiveness(g)
			prof, err := emu.ProfileProgram(p, nil, ProfileLimit)
			if err != nil {
				return nil, fmt.Errorf("%s: profile: %w", b.Name, err)
			}
			return &Prepared{Bench: b, Prog: p, CFG: g, Live: lv, Prof: prof}, nil
		})
}

// buildProgram materialises the simulated binary for one trace identity:
// the prepared original for baseline jobs, else extraction + rewrite under
// the key's axes. The returned templates and selection are immutable and
// safe to share across concurrently simulating arms.
func buildProgram(pr *Prepared, key TraceKey) (*isa.Program, []*core.Template, *core.Selection, error) {
	if key.Baseline {
		return pr.Prog, nil, nil, nil
	}
	sel := core.Extract(pr.CFG, pr.Live, pr.Prof, key.Policy, key.Entries)
	res, err := rewrite.Rewrite(pr.Prog, sel, key.Compress)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: rewrite: %w", pr.Bench.Name, err)
	}
	return res.Prog, res.Templates, sel, nil
}

// captureTrace returns key's alias of its binary and the binary's
// memoized trace, rewriting the program at most once per TraceKey and
// sourcing the trace at most once per binary (see sourceTrace for where it
// comes from) no matter how many arms ask. An arm whose machine can never
// issue one of the rewrite's mini-graphs is refused between the two (see
// issuable), so it costs an extraction, never a capture. Like Prepare, the
// computes take a worker slot and callers must not hold one. The slot a
// rewrite took passes straight to the capture of its binary when this
// caller leads that too: queueing for a second slot would start every
// capture behind the replays already waiting, and lengthen the sweep. No
// slot is held while waiting on another key's capture.
func (e *Engine) captureTrace(ctx context.Context, key SimKey, pr *Prepared) (*capturedTrace, *trace.Trace, error) {
	tk := key.TraceKey()
	held := false
	release := func() {
		if held {
			e.release()
			held = false
		}
	}
	defer release()
	ct, err := singleflight(e, ctx, e.traces, tk, nil, nil,
		func(ctx context.Context) (*capturedTrace, error) {
			if err := e.acquire(ctx); err != nil {
				return nil, err
			}
			held = true
			prog, templates, sel, err := buildProgram(pr, tk)
			if err != nil {
				return nil, err
			}
			return &capturedTrace{prog: prog, templates: templates, sel: sel, id: binaryID(prog, templates, tk.Limit)}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	if err := issuable(key, ct.templates); err != nil {
		return nil, nil, err
	}
	tr, err := singleflight(e, ctx, e.bins, ct.id, &e.traceHits, release,
		func(ctx context.Context) (*trace.Trace, error) {
			if !held {
				if err := e.acquire(ctx); err != nil {
					return nil, err
				}
				held = true
			}
			defer release()
			tr, err := e.sourceTrace(ctx, key, pr, ct.prog, ct.templates)
			if err != nil {
				return nil, err
			}
			e.traceBytes.Add(tr.SizeBytes())
			return tr, nil
		})
	if err != nil {
		return nil, nil, err
	}
	// The LRU accounts what the trace actually holds resident — a spilled
	// trace costs its manifest bookkeeping, not its logical size, so the
	// budget admits many large spilled traces at once.
	e.touchTrace(tk, ct.id, tr.ResidentBytes())
	return ct, tr, nil
}

// issuable refuses an arm whose machine can never issue one of its
// binary's mini-graphs (uarch.Config.CheckIssuable): its pipeline would
// spin until the context expired. The error wraps *uarch.UnissuableError.
func issuable(key SimKey, templates []*core.Template) error {
	if key.Baseline {
		return nil
	}
	if err := key.Config.CheckIssuable(newMGT(key, templates)); err != nil {
		return fmt.Errorf("sim: %s: %w", key.Prepare.Bench, err)
	}
	return nil
}

// ReleaseTrace lets go of key's trace where this engine only borrowed it
// for a few arms. key's alias — the rewritten program, templates and
// selection — stays, so a later borrow re-sources only the trace, from the
// store or a peer, and never rewrites again; but it no longer holds the
// binary, whose trace is dropped once no other listed alias does. The
// alias is listed again when a later arm re-sources it. In-flight replays
// keep the trace they hold.
func (e *Engine) ReleaseTrace(key TraceKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.traces[key]
	if !ok || !isDone(a) || a.err != nil {
		return
	}
	id := a.val.id
	e.aliases[id] = slices.DeleteFunc(e.aliases[id], func(k TraceKey) bool { return k == key })
	if len(e.aliases[id]) > 0 {
		return // another alias holds the binary
	}
	if c, ok := e.bins[id]; ok && !isDone(c) {
		return // re-sourcing already: its waiters own it
	}
	e.dropBinary(id)
}

// evictTrace drops the completed trace of key's binary, and every alias
// of that binary, from the in-memory cache so the next captureTrace
// re-sources (or reloads) it — the recovery path after a replay lost a
// chunk mid-flight.
func (e *Engine) evictTrace(key TraceKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.traces[key]
	if !ok || !isDone(a) {
		return // gone already, or in flight: its waiters own it
	}
	delete(e.traces, key)
	if a.err != nil {
		return
	}
	if c, ok := e.bins[a.val.id]; ok && !isDone(c) {
		return // re-sourcing already: its waiters own it
	}
	e.dropBinary(a.val.id)
}

// sourceTrace produces key's trace from the first tier holding a valid
// copy — the attached store, a peer, else a fresh capture. Fall-through is
// the only recovery: a tier whose trace fails verification is a miss at
// that tier and the next one runs, so a damaged or short chunk from any
// source costs a capture, never a wrong replay.
func (e *Engine) sourceTrace(ctx context.Context, key SimKey, pr *Prepared, prog *isa.Program, templates []*core.Template) (*trace.Trace, error) {
	tk := key.TraceKey()
	if tr := e.storeTier(tk); tr != nil {
		return tr, nil
	}
	if tr := e.peerTier(ctx, tk); tr != nil {
		return tr, nil
	}
	tr, err := e.capture(ctx, key, pr, prog, templates)
	if err != nil {
		return nil, err
	}
	return e.adopt(tk, tr, tierCapture)
}

// storeTier loads tk's trace from the attached store: the manifest and the
// chunk payloads are records of the trace's one segment. A trace whose
// chunks do not all verify loses the segment, so it reads as a clean miss
// everywhere.
func (e *Engine) storeTier(tk TraceKey) *trace.Trace {
	_, m, ok := e.storedManifest(tk)
	if !ok {
		return nil
	}
	tr, err := trace.FromManifest(m, &storeChunkIO{e: e, tk: tk})
	if err == nil {
		tr, err = e.adopt(tk, tr, tierStore)
	}
	if err != nil {
		if kb, kerr := EncodeTraceKey(tk); kerr == nil {
			e.store.DeleteSegment(kb)
		}
		return nil
	}
	e.traceStoreHits.Add(1)
	return tr
}

// peerTier asks the trace fetcher (see WithTraceFetcher) for tk's trace.
// A fetch error or a trace that fails verification is a counted reject;
// (nil, nil) from the fetcher is "no source" and counts as nothing.
func (e *Engine) peerTier(ctx context.Context, tk TraceKey) *trace.Trace {
	if e.traceFetch == nil {
		return nil
	}
	tr, err := e.traceFetch(ctx, tk)
	if err == nil && tr != nil {
		tr, err = e.adopt(tk, tr, tierPeer)
	}
	if err != nil {
		e.tracePeerRejects.Add(1)
		return nil
	}
	if tr != nil {
		e.tracePeerHits.Add(1)
	}
	return tr
}

// capture runs the functional emulation of key's binary into a fresh,
// fully resident trace. The profile's dynamic-instruction count sizes the
// chunk buffers in one allocation (nop-fill rewriting preserves record
// counts).
func (e *Engine) capture(ctx context.Context, key SimKey, pr *Prepared, prog *isa.Program, templates []*core.Template) (*trace.Trace, error) {
	opts := trace.CaptureOptions{ChunkRecords: e.chunkRecords, Hint: pr.Prof.DynInsts}
	tr, err := trace.CaptureWith(ctx, prog, newMGT(key, templates), key.Config.MaxRecords, opts)
	if err != nil {
		return nil, err
	}
	e.traceCaptures.Add(1)
	return tr, nil
}

// tier names where sourceTrace got a trace, which is all adopt needs to
// know about it.
type tier int

const (
	tierStore   tier = iota // untrusted, already durable
	tierPeer                // untrusted, in memory only
	tierCapture             // produced here, in memory only
)

// adopt is the one step every tier's trace passes through on its way into
// the engine: verify what crossed a trust boundary chunk by chunk against
// its manifest, make what is not yet durable durable (see persistTrace),
// and hold the result the way replay wants it — resident with an unbounded
// chunk window, spilled behind the store with a bounded one. A trace the
// store refused stays resident either way. An error means a chunk failed
// verification; no part of such a trace is ever replayed.
func (e *Engine) adopt(tk TraceKey, tr *trace.Trace, from tier) (*trace.Trace, error) {
	bounded := e.boundedReplay()
	switch {
	case from == tierCapture:
		// Produced in-process: nothing crossed a trust boundary.
	case from == tierStore && bounded:
		// Already where a bounded replay wants it: stream every chunk
		// through once (constant memory) and leave the trace spilled.
		for ci := int64(0); ci < tr.NumChunks(); ci++ {
			if _, err := tr.ChunkPayload(ci); err != nil {
				return nil, err
			}
		}
	default:
		// Verify and retain in one pass. A peer's chunks are in memory
		// already, so this costs no copy.
		if err := tr.Materialize(); err != nil {
			return nil, err
		}
	}
	if from == tierStore || e.store == nil || !e.persistTrace(tk, tr) || !bounded {
		return tr, nil
	}
	// Durable in chunked form: hold the spilled equivalent, so residency
	// stays bounded even right after a capture or a transfer.
	return trace.FromManifest(tr.Manifest(), &storeChunkIO{e: e, tk: tk})
}

// persistTrace publishes the resident trace tr as one store segment: its
// chunk frames in index order, each under its chunk key, then its manifest
// under the trace key, then the rename that makes all of it visible at
// once — so a crash at any point before that leaves a staging file and no
// trace, never part of one. Returns false if anything failed or the
// store's budget refused the trace, in which case the store reads as a
// clean miss.
func (e *Engine) persistTrace(tk TraceKey, tr *trace.Trace) bool {
	keyBytes, err := EncodeTraceKey(tk)
	if err != nil {
		return false
	}
	w := e.store.BeginSegment(keyBytes, tr.SizeBytes())
	defer w.Abort() // a no-op once published
	m := tr.Manifest()
	for ci := range m.Chunks {
		index := int64(ci)
		raw, err := tr.ChunkPayload(index)
		if err != nil {
			return false
		}
		kb, err := EncodeTraceChunkKey(tk, index)
		if err != nil || e.appendRecord(w, kb, trace.EncodeChunk(index, raw, false)) != nil {
			return false
		}
	}
	return e.appendRecord(w, keyBytes, trace.EncodeManifest(m)) == nil && w.Publish() == nil
}

// loadOutcome is the store read-before of one arm: the arm's store key
// (nil when no store is attached, i.e. nothing to write through to) and
// its persisted outcome, if a valid one exists. A disk hit never touches
// preparation or a pipeline.
func (e *Engine) loadOutcome(key SimKey) ([]byte, *Outcome) {
	if e.store == nil {
		return nil, nil
	}
	keyBytes, err := EncodeSimKey(key)
	if err != nil {
		return nil, nil
	}
	if data, ok := e.store.Get(keyBytes); ok {
		if out, err := DecodeOutcome(data); err == nil {
			e.storeHits.Add(1)
			return keyBytes, out
		}
	}
	e.storeMisses.Add(1)
	return keyBytes, nil
}

// saveOutcome writes a computed outcome through to the store. Store
// failures are never job failures: a failed write-through is dropped.
func (e *Engine) saveOutcome(keyBytes []byte, out *Outcome) {
	if keyBytes == nil {
		return
	}
	if data, err := EncodeOutcome(out); err == nil && e.store.Put(keyBytes, data) == nil {
		e.storePuts.Add(1)
	}
}

// Simulate runs (or returns the cached result of) one timing simulation.
// The run uses the job's canonical configuration (display name cleared),
// so a cached Outcome is identical no matter which of several
// cosmetically-renamed submissions executed it.
//
// The simulation replays the memoized captured trace for the job's binary
// (see captureTrace); only the first arm over a given rewrite pays for
// functional emulation, and its replaying siblings read the shared
// immutable trace through private cursors. Live step-by-step emulation
// (uarch.New over the same binary) is not an engine mode: it is the
// reference the invariance tests and the differential oracle hold replay
// to, byte for byte.
//
// With a persistent store attached (WithStore), an in-memory miss first
// consults the store under the job's canonical key encoding — a hit skips
// preparation and the pipeline entirely — and a computed outcome is
// written through for future processes. Store failures are never job
// failures: a damaged entry is a miss and a failed write-through is
// dropped.
func (e *Engine) Simulate(ctx context.Context, job SimJob) (*Outcome, error) {
	// Refuse an impossible machine up front with a structured error. Job
	// specs arrive over HTTP; a degenerate config must fail its own job,
	// not panic a worker mid-sweep.
	if err := job.Config.Check(); err != nil {
		return nil, fmt.Errorf("sim: job %q: %w", job.Config.Name, err)
	}
	key := job.Key()
	return singleflight(e, ctx, e.sims, key, &e.simHits, nil,
		func(ctx context.Context) (*Outcome, error) {
			e.simRuns.Add(1)
			keyBytes, out := e.loadOutcome(key)
			if out != nil {
				return out, nil
			}
			pr, err := e.Prepare(ctx, job.Prepare)
			if err != nil {
				return nil, err
			}

			res, sel, err := e.replay(ctx, key, job.Config.Name, pr)
			if errors.Is(err, trace.ErrChunkUnavailable) {
				// A spilled chunk vanished mid-replay (store eviction under
				// pressure, a peer gone away). The trace itself is
				// reproducible — evict the stale handle and re-source it,
				// which re-verifies the store or re-captures.
				e.chunkRecaptures.Add(1)
				e.evictTrace(key.TraceKey())
				res, sel, err = e.replay(ctx, key, job.Config.Name, pr)
			}
			if errors.Is(err, trace.ErrChunkUnavailable) {
				// Still losing chunks after re-sourcing: the store is
				// failing reads, not just missing one entry. Recover
				// without it — the job completes even if every store read
				// fails from here on.
				e.chunkRecaptures.Add(1)
				res, sel, err = e.replayResident(ctx, key, job.Config.Name, pr)
			}
			if err != nil {
				return nil, err
			}
			out = &Outcome{Result: res, Selection: sel}
			e.saveOutcome(keyBytes, out)
			return out, nil
		})
}

// newMGT builds the mini-graph table one arm simulates with: the shared
// templates scheduled under the arm's own machine parameters (nil for
// baseline jobs, which have no mini-graphs).
func newMGT(key SimKey, templates []*core.Template) *core.MGT {
	if key.Baseline {
		return nil
	}
	return core.NewMGT(templates, ExecParams(key.Config))
}

// armErr names the arm in a failure. cfgName is the job's display name
// (the canonical key clears it). ErrChunkUnavailable stays unwrappable
// through the %w so Simulate can recover by re-capturing.
func armErr(key SimKey, cfgName string, err error) error {
	return fmt.Errorf("%s @ %s: %w", key.Prepare.Bench, cfgName, err)
}

// replay runs one timing simulation over the shared captured trace for
// key's binary (sourcing it if need be — before taking a worker slot,
// since captureTrace takes its own) through a private zero-allocation
// cursor. The pipeline runs once per (binary, canonical machine): an arm
// whose recipe aliases another's binary shares that arm's Result, run or
// in flight, and keeps its own selection; a shared failure is named after
// the arm that asked. Under bounded replay the cursor holds at most the
// engine's chunk window of the spilled trace.
func (e *Engine) replay(ctx context.Context, key SimKey, cfgName string, pr *Prepared) (*uarch.Result, *core.Selection, error) {
	ct, tr, err := e.captureTrace(ctx, key, pr)
	if err != nil {
		return nil, nil, err
	}
	res, err := singleflight(e, ctx, e.runs, runKey{bin: ct.id, cfg: key.Config}, &e.simBinaryHits, nil,
		func(ctx context.Context) (*uarch.Result, error) {
			if err := e.acquire(ctx); err != nil {
				return nil, err
			}
			defer e.release()
			rd := trace.NewReaderWindowed(tr, ct.prog, key.Config.MaxRecords, e.chunkWindow)
			res, err := uarch.NewWithSource(key.Config, newMGT(key, ct.templates), rd).Run(ctx)
			e.noteWindow(rd.WindowStats())
			if err != nil {
				return nil, err
			}
			e.noteFrontend(res)
			return res, nil
		})
	if err != nil {
		return nil, nil, armErr(key, cfgName, err)
	}
	return res, ct.sel, nil
}

// replayResident is the last-resort recovery for replays that keep losing
// spilled chunks: a store whose reads fail persistently, not one that
// merely evicted an entry. It re-derives the trace fully resident — no
// bound window, no store traffic at all — so this attempt depends
// on nothing but the rewritten binary and always makes progress. The
// resident trace is private to this call and released on return; the
// residency bound yields to guaranteed completion for exactly this job.
func (e *Engine) replayResident(ctx context.Context, key SimKey, cfgName string, pr *Prepared) (*uarch.Result, *core.Selection, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer e.release()
	prog, templates, sel, err := buildProgram(pr, key.TraceKey())
	if err != nil {
		return nil, nil, err
	}
	tr, err := e.capture(ctx, key, pr, prog, templates)
	if err != nil {
		return nil, nil, err
	}
	e.traceBytes.Add(tr.SizeBytes())
	rd := trace.NewReader(tr, prog, key.Config.MaxRecords)
	res, err := uarch.NewWithSource(key.Config, newMGT(key, templates), rd).Run(ctx)
	if err != nil {
		return nil, nil, armErr(key, cfgName, err)
	}
	e.noteFrontend(res)
	return res, sel, nil
}

// Run submits every job, waits for all of them, and returns the outcomes
// index-aligned with jobs. The first hard failure cancels the remaining
// jobs and the returned error joins the root causes (see FanOut).
func (e *Engine) Run(ctx context.Context, jobs []SimJob) ([]*Outcome, error) {
	return e.RunEach(ctx, jobs, nil)
}

// RunEach is Run with a completion hook: onDone(i, out) fires as each job
// finishes successfully, from that job's goroutine (it must be safe for
// concurrent use). Use it to stream progress during long sweeps.
//
// Every job goes through Simulate, so arms sharing a trace share it the
// way any concurrent Simulate callers do: one capture, then a private
// cursor per arm (see replay).
func (e *Engine) RunEach(ctx context.Context, jobs []SimJob, onDone func(i int, out *Outcome)) ([]*Outcome, error) {
	outs := make([]*Outcome, len(jobs))
	err := FanOut(ctx, len(jobs), nil, func(ctx context.Context, i int) error {
		var err error
		if outs[i], err = e.Simulate(ctx, jobs[i]); err == nil && onDone != nil {
			onDone(i, outs[i])
		}
		return err
	})
	return outs, err
}

// Each runs fn(0..n-1) with the engine's concurrency bound and the same
// error semantics as Run. It bounds parallelism with its own limiter (not
// the worker pool) so fn may itself submit engine jobs without risking a
// pool deadlock.
func (e *Engine) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return FanOut(ctx, n, make(chan struct{}, e.workers), fn)
}

// FanOut is the one cancel-on-first-hard-failure fan-out (Run, Each and
// the serving tier's coordinator all go through it): fn(ctx, 0..n-1) each
// on its own goroutine, at most cap(limit) of them inside fn at once (nil
// limit: unbounded). The first fn to fail cancels the ctx its siblings
// see. The returned error joins every failure, dropping cancellations
// that a sibling's failure induced so the root causes are what surfaces;
// if the parent ctx itself was canceled (or every error is a
// cancellation), the cancellation is reported as-is.
func FanOut(ctx context.Context, n int, limit chan struct{}, fn func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if limit != nil {
				select {
				case limit <- struct{}{}:
					defer func() { <-limit }()
				case <-gctx.Done():
					errs[i] = gctx.Err()
					return
				}
			}
			if errs[i] = fn(gctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()

	var hard []error
	var canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case isCtxErr(err):
			canceled = err
		default:
			hard = append(hard, err)
		}
	}
	if len(hard) > 0 {
		return errors.Join(hard...)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return canceled
}
