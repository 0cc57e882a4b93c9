package uarch

import (
	"context"
	"fmt"
	"math"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/uarch/alupipe"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/cache"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/uarch/rename"
	"minigraph/internal/uarch/sched"
	"minigraph/internal/uarch/storesets"
)

const notReady = math.MaxInt64 / 4

// feEntry is a front-end pipe slot: a fetched uop travelling towards rename.
type feEntry struct {
	u       *uop
	readyAt int64
}

// feRing is the fetch-to-rename pipe: a fixed-capacity ring of feEntry,
// sized once at construction so the steady-state front end never
// allocates. The buffer is rounded up to a power of two so slot math is a
// mask; the *logical* capacity (what full() enforces, and therefore what
// timing observes) stays exact.
type feRing struct {
	buf  []feEntry
	mask int
	cap  int
	head int
	n    int
}

func newFERing(capacity int) feRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return feRing{buf: make([]feEntry, size), mask: size - 1, cap: capacity}
}

func (r *feRing) len() int   { return r.n }
func (r *feRing) full() bool { return r.n == r.cap }
func (r *feRing) front() *feEntry {
	return &r.buf[r.head]
}

func (r *feRing) push(e feEntry) {
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *feRing) popFront() feEntry {
	e := r.buf[r.head]
	r.buf[r.head] = feEntry{}
	r.head = (r.head + 1) & r.mask
	r.n--
	return e
}

// TraceSource delivers the architecturally correct dynamic instruction
// stream to the pipeline. Two implementations exist: the live emu.Stream,
// which steps the functional emulator lazily, and trace.Reader, which
// replays an immutable captured trace. The contract mirrors emu.Stream:
// NextInto writes the record at the cursor into dst and advances (false =
// exhausted), Rewind re-serves from an earlier sequence number after a
// squash, Exhausted reports end of stream, and Err reports the
// architectural fault that truncated it. The into-style delivery lets
// fetch write each record straight into its uop with no intermediate
// staging copy. Timing must be byte-identical across implementations —
// the golden fixtures enforce this.
type TraceSource interface {
	NextInto(dst *emu.Record) bool
	Rewind(seq int64)
	Exhausted() bool
	Err() error
}

// Pipeline is one simulated machine instance bound to one program run.
type Pipeline struct {
	cfg Config
	src TraceSource
	mgt *core.MGT

	pred   bpred.Predictor
	ssets  *storesets.Predictor
	icache *cache.Cache
	dcache *cache.Cache
	l2     *cache.Cache
	bus    *cache.Bus

	// pf is the L1D prefetch engine (nil = disabled); pfBuf is the
	// fixed-size target buffer OnAccess fills, so the per-load hook never
	// allocates.
	pf    *prefetch.Engine
	pfBuf [prefetch.MaxDegree]isa.Addr

	window *sched.Window
	aps    []*alupipe.Pipe
	apBusy []bool
	ren    *rename.Table

	readyAt []int64 // per physical register

	rob *rob
	// The scheduler is split by issue state so the per-cycle select loop
	// touches only entries that could actually issue. iqCand holds
	// not-yet-issued entries in program order (the select scan order);
	// iqHeld holds issued entries still occupying a scheduler slot
	// (unordered, O(1) removal via uop.heldIdx). IQ occupancy — what
	// dispatch stalls against — is the sum of both. iqFreeRing schedules
	// the two-cycle post-issue hold of singleton entries (§4.1): slot
	// cycle&3 lists the entries whose hold expires that cycle, epoch-tagged
	// so a recycled uop can never be freed by its previous life's entry.
	iqCand     []*uop
	iqHeld     []*uop
	iqFreeRing [4][]uopRef
	// pregWaiters[preg] lists the candidates whose wakeAt was computed
	// while preg was notReady (producer not yet issued). A physical
	// register's ready time only ever *decreases* at the producer's issue
	// (notReady → cycle+eff; finite values are monotonically increasing
	// across replays), so recomputing exactly those subscribers there keeps
	// every candidate's wakeAt a sound lower bound on its true ready cycle
	// — the select scan can skip sleeping entries on one comparison.
	pregWaiters [][]uopRef
	// replayedHeld flags that a replay returned issued entries to the
	// not-issued state this cycle; processEvents then migrates them from
	// iqHeld back into iqCand (in program order) before the select pass.
	// replayScratch is the migration buffer, reused so the (frequent, on
	// cache-miss-heavy runs) replay path stays allocation-free.
	replayedHeld  bool
	replayScratch []*uop

	lsq      *rob // reuse ring structure for the load/store queue
	frontend feRing

	// uopPool recycles uop structures: a uop returns to the pool once it is
	// dead (retired or squashed) AND every event scheduled against it has
	// drained from the wheel. Recycling bumps the epoch, so an event that
	// somehow survived drains as a stale no-op rather than waking the
	// reincarnated uop. uopAllocs counts pool misses (fresh allocations);
	// in steady state it stays pinned near the machine's in-flight capacity.
	uopPool   []*uop
	uopAllocs int64

	wheel      eventWheel
	cycle      int64
	fetchStall int64 // no fetch before this cycle
	icacheFill int64
	pendingU   *uop // fetched but stalled on an icache miss
	pendingBr  *uop // unresolved (full) mispredicted branch

	violPending bool
	violSeq     int64

	lastFetchLine isa.Addr
	haveFetchLine bool

	// rdig folds every retired register write and store, in retirement
	// order — the pipeline half of the differential oracle (emu.Digest).
	rdig emu.Digest

	stats Result
}

// uopRef is an epoch-tagged uop reference: a scheduled singleton
// scheduler-slot release, or a wake-up subscription. The tag makes stale
// references (the uop was squashed, replayed, or recycled into a new life)
// cheap to recognise and skip.
type uopRef struct {
	u     *uop
	epoch int
}

type evKind uint8

const (
	evComplete evKind = iota
	evMissDiscover
	evResolve
)

// New builds a pipeline for prog with a live emulation source. mgt may be
// nil for plain binaries.
func New(cfg Config, prog *isa.Program, mgt *core.MGT) *Pipeline {
	cfg.Validate()
	m := emu.NewMachine(prog, mgt)
	return NewWithSource(cfg, mgt, emu.NewStream(m, cfg.EffectiveStreamWindow(), cfg.MaxRecords))
}

// NewWithSource builds a pipeline fed by an explicit record source — a
// live emu.Stream or a trace replay cursor. The source must respect
// cfg.MaxRecords itself (both emu.NewStream and trace.NewReader take the
// limit at construction).
func NewWithSource(cfg Config, mgt *core.MGT, src TraceSource) *Pipeline {
	cfg.Validate()
	p := &Pipeline{
		cfg:      cfg,
		src:      src,
		mgt:      mgt,
		rdig:     emu.NewDigest(),
		pred:     bpred.New(cfg.BPred),
		pf:       prefetch.New(cfg.Prefetcher),
		ssets:    storesets.New(cfg.StoreSets),
		bus:      cache.NewBus(),
		ren:      rename.New(cfg.PhysRegs),
		rob:      newROB(cfg.ROBSize),
		lsq:      newROB(cfg.LSQSize),
		iqCand:   make([]*uop, 0, cfg.IQSize),
		iqHeld:   make([]*uop, 0, cfg.IQSize),
		frontend: newFERing(cfg.FrontendCapacity()),
	}
	for i := range p.iqFreeRing {
		p.iqFreeRing[i] = make([]uopRef, 0, cfg.IssueWidth)
	}
	if cfg.MemLatency > 0 {
		p.bus.MemLat = cfg.MemLatency
	}
	p.l2 = cache.New(cfg.L2, nil, p.bus)
	p.icache = cache.New(cfg.ICache, p.l2, nil)
	p.dcache = cache.New(cfg.DCache, p.l2, nil)
	p.window = sched.NewWindow(cfg.WindowHorizon, sched.Capacities{
		sched.ResALU:    cfg.IntALUs,
		sched.ResAP:     cfg.APs,
		sched.ResLoad:   cfg.LoadPorts,
		sched.ResStore:  cfg.StorePorts,
		sched.ResFP:     cfg.FPUnits,
		sched.ResWrPort: cfg.RFWritePorts,
	})
	for i := 0; i < cfg.APs; i++ {
		p.aps = append(p.aps, alupipe.New(cfg.APDepth))
	}
	p.apBusy = make([]bool, cfg.APs)
	p.readyAt = make([]int64, p.ren.NumPhys())
	p.pregWaiters = make([][]uopRef, p.ren.NumPhys())
	p.stats.Config = cfg.Name
	return p
}

// hardCycleLimit aborts a simulation that stopped making forward progress:
// no real run approaches it, so exceeding it is a livelock bug, not a long
// program.
const hardCycleLimit = int64(10_000_000_000)

// Run simulates to completion (program halt, MaxRecords, or ctx
// cancellation) and returns the statistics. Cancellation is checked every
// few thousand cycles so a long simulation aborts promptly without taxing
// the per-cycle hot loop.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	for {
		done, err := p.RunCycles(ctx, 1<<20)
		if err != nil {
			return nil, err
		}
		if done {
			return p.Finish()
		}
	}
}

// RunCycles advances the simulation by at most n cycles, returning
// done=true once the run is complete (program halt, MaxRecords, or stream
// fault). It is the resumable form of Run: a gang scheduler interleaves
// many pipelines by granting each a cycle quantum in turn, and the chunk
// boundaries are invisible to the simulated machine — state advances
// exactly as one uninterrupted Run would. Call Finish after done.
//
// n counts simulated cycles, not host work: a cycle in which no stage
// changed state is followed by a jump over the cycles that provably repeat
// it (see fastForward), and the jumped cycles come out of the quantum like
// stepped ones. Skipping is a host-speed device only — a change to it that
// moves one simulated count is a bug, and testdata/results.json is there
// to catch it.
func (p *Pipeline) RunCycles(ctx context.Context, n int64) (bool, error) {
	for ; n > 0; n-- {
		if p.done() {
			return true, nil
		}
		p.cycle++
		if p.cycle > hardCycleLimit {
			return false, fmt.Errorf("uarch: exceeded %d cycles (livelock?)", hardCycleLimit)
		}
		if p.cycle&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		p.window.Tick(p.cycle)
		for _, ap := range p.aps {
			ap.Tick(p.cycle)
		}
		retired, issued, fetched := p.stats.Retired, p.stats.Issued, p.stats.FetchedRecords
		inPipe, pendingU := p.frontend.len(), p.pendingU
		fired := p.processEvents()
		p.retire()
		p.issue()
		p.dispatch()
		p.fetch()
		if p.violPending {
			p.squash(p.violSeq)
			p.violPending = false
			continue
		}
		// Nothing fetched and the pipe the same length: nothing dispatched.
		if !fired && retired == p.stats.Retired && issued == p.stats.Issued &&
			fetched == p.stats.FetchedRecords && inPipe == p.frontend.len() && pendingU == p.pendingU {
			n -= p.fastForward(n - 1)
		}
	}
	return p.done(), nil
}

// fastForward runs at the end of a cycle in which no stage changed state
// and jumps the clock to one before the earliest cycle at which any stage
// can: until then every cycle would find the machine exactly as this one
// left it. It returns how many cycles it skipped, at most limit. What can
// end the wait, stage by stage:
//
//   - events: the next non-empty slot of the wheel's current page, or the
//     page boundary, where take promotes the far wheel (never crossed — and
//     every 4096-cycle cancellation poll is a page boundary, so polls are
//     always landed on);
//   - retire: only a completion, which is an event;
//   - issue: a candidate whose sources and replay hold are all satisfied by
//     a known cycle wakes then. One waiting on a producer that has not
//     issued bounds nothing (that issue ends the wait); one that is ready
//     now lost this cycle to a port, a unit or a store set and must retry
//     next cycle, so there is no jump. A pending scheduler-slot release
//     (iqFreeRing) is due within three cycles and forbids the jump too;
//   - dispatch: the pipe head's arrival. A head that has arrived is parked
//     on a full ROB, scheduler, LSQ or register file, which only a retire,
//     a completion or a squash un-parks;
//   - fetch: the end of an I-cache fill or redirect bubble, unless a
//     mispredicted branch is pending (its resolution is an event). Fetch
//     with no stall, room and records would have fetched.
//
// The skipped cycles are replayed for exactly what stepping them would
// have done: the reservation rings advance, and the stall counter the head
// is parked on is credited once per cycle.
func (p *Pipeline) fastForward(limit int64) int64 {
	if limit <= 0 || p.done() {
		return 0
	}
	for i := range p.iqFreeRing {
		if len(p.iqFreeRing[i]) > 0 {
			return 0
		}
	}
	// next is the first cycle that has to be stepped.
	next := min(p.cycle+1+limit, hardCycleLimit+1)
	var parked *int64
	if p.frontend.len() > 0 {
		if fe := p.frontend.front(); fe.readyAt > p.cycle {
			next = min(next, fe.readyAt)
		} else if parked = p.dispatchStall(fe.u); parked == nil {
			return 0
		}
	}
	if resume := max(p.fetchStall, p.icacheFill); p.pendingBr == nil && resume > p.cycle {
		next = min(next, resume)
	}
	for _, u := range p.iqCand {
		// Recomputed, not u.wakeAt: that is only a lower bound (a miss
		// discovery moves a source's ready time later and leaves it stale),
		// and a stale one would read as "ready now" and forbid the jump.
		ready := u.minIssue
		for _, s := range u.srcs[:u.nsrcs] {
			if s != rename.NoReg {
				ready = max(ready, p.readyAt[s])
			}
		}
		if ready <= p.cycle {
			return 0
		}
		next = min(next, ready) // notReady is later than any cycle
	}
	// Last, because it walks the wheel slot by slot up to the bound so far.
	next = p.wheel.nextDue(p.cycle, next)
	skip := next - p.cycle - 1
	if skip <= 0 {
		return 0
	}
	for c := p.cycle + 1; c < next; c++ {
		p.window.Tick(c)
		for _, ap := range p.aps {
			ap.Tick(c)
		}
	}
	if parked != nil {
		*parked += skip
	}
	p.cycle += skip
	return skip
}

// Finish surfaces the stream's architectural fault (if the run hit one)
// and seals the statistics. Call it exactly once, after RunCycles reports
// done; Run does so itself. The Result is a copy that shares no allocation
// with the Pipeline: callers keep Results for as long as they like (the
// engine memoizes one per arm), and a pointer into the Pipeline would keep
// the machine, its record source and the trace behind it alive with them.
func (p *Pipeline) Finish() (*Result, error) {
	if err := p.src.Err(); err != nil {
		return nil, err
	}
	p.stats.Cycles = p.cycle
	p.stats.RetiredDigest = uint64(p.rdig)
	p.stats.PregAllocs = p.ren.Allocs
	p.stats.PregFrees = p.ren.Frees
	p.stats.L1IMisses = p.icache.Misses
	p.stats.L1DMisses = p.dcache.Misses
	p.stats.L2Misses = p.l2.Misses
	p.stats.Violations = p.ssets.Violations
	seen, hits := p.pred.DirStats()
	p.stats.CondBranches = seen
	p.stats.CondMispredicts = seen - hits
	p.stats.PrefetchIssued = p.dcache.PrefIssued
	p.stats.PrefetchUseful = p.dcache.PrefUseful
	p.stats.PrefetchLate = p.dcache.PrefLate
	res := p.stats
	return &res, nil
}

func (p *Pipeline) done() bool {
	return p.rob.empty() && p.frontend.len() == 0 && p.pendingU == nil &&
		p.pendingBr == nil && p.src.Exhausted()
}

// ---------- uop pool ----------

// newUop returns a blank uop, recycled when possible. Pool invariants are
// enforced by panic: a pooled uop has no live references, so a violation is
// simulator memory corruption and must not be survivable.
func (p *Pipeline) newUop() *uop {
	if n := len(p.uopPool); n > 0 {
		u := p.uopPool[n-1]
		p.uopPool = p.uopPool[:n-1]
		if !u.pooled || u.pendingEv != 0 {
			panic("uarch: uop pool handed out a live uop")
		}
		u.pooled = false
		return u
	}
	p.uopAllocs++
	u := &uop{}
	u.reset(0)
	u.pooled = false
	return u
}

// kill marks u dead (retired or squashed) and recycles it if no scheduled
// events still reference it; otherwise processEvents recycles it when the
// last event drains.
func (p *Pipeline) kill(u *uop) {
	u.dead = true
	if u.pendingEv == 0 {
		p.recycle(u)
	}
}

// returnFresh returns to the pool a uop that never left fetch: only its
// record slot was written (which reset never clears anyway), so the
// dispatch-ready blank state from newUop is still intact and the full
// reset can be skipped.
func (p *Pipeline) returnFresh(u *uop) {
	u.pooled = true
	p.uopPool = append(p.uopPool, u)
}

func (p *Pipeline) recycle(u *uop) {
	// Bump the epoch across the reset so any event that escaped accounting
	// can never match the reincarnated uop.
	u.reset(u.epoch + 1)
	u.pooled = true
	p.uopPool = append(p.uopPool, u)
}

// ---------- scheduler membership ----------

// iqLen is the scheduler occupancy dispatch stalls against.
func (p *Pipeline) iqLen() int { return len(p.iqCand) + len(p.iqHeld) }

// heldAdd moves an entry that just issued into the held set.
func (p *Pipeline) heldAdd(u *uop) {
	u.heldIdx = int32(len(p.iqHeld))
	p.iqHeld = append(p.iqHeld, u)
}

// heldRemove releases u's scheduler slot (O(1) swap-remove).
func (p *Pipeline) heldRemove(u *uop) {
	n := len(p.iqHeld) - 1
	last := p.iqHeld[n]
	p.iqHeld[u.heldIdx] = last
	last.heldIdx = u.heldIdx
	p.iqHeld[n] = nil
	p.iqHeld = p.iqHeld[:n]
}

// candPush appends a freshly dispatched entry; dispatch runs in program
// order, so the candidate array stays sorted by sequence number.
func (p *Pipeline) candPush(u *uop) {
	p.iqCand = append(p.iqCand, u)
}

// candInsert returns a replayed entry to the candidate array at its
// program-order position. Replays are rare, so the O(n) shift is noise.
func (p *Pipeline) candInsert(u *uop) {
	i := len(p.iqCand)
	for i > 0 && p.iqCand[i-1].rec.Seq > u.rec.Seq {
		i--
	}
	p.iqCand = append(p.iqCand, nil)
	copy(p.iqCand[i+1:], p.iqCand[i:])
	p.iqCand[i] = u
}

// collectReplayed migrates entries a replay returned to the not-issued
// state from the held set back into the candidate array, restoring the
// eager invariants (candidates: in program order, never issued; held:
// always issued) before the select pass runs.
func (p *Pipeline) collectReplayed() {
	w := 0
	moved := p.replayScratch[:0]
	for _, c := range p.iqHeld {
		if c.issued {
			c.heldIdx = int32(w)
			p.iqHeld[w] = c
			w++
			continue
		}
		moved = append(moved, c)
	}
	for i := w; i < len(p.iqHeld); i++ {
		p.iqHeld[i] = nil
	}
	p.iqHeld = p.iqHeld[:w]
	for _, c := range moved {
		p.refreshWake(c)
		p.candInsert(c)
	}
	for i := range moved {
		moved[i] = nil
	}
	p.replayScratch = moved[:0]
}

// drainIQFrees releases the singleton scheduler slots whose two-cycle
// post-issue hold expires this cycle. Stale entries — the uop replayed,
// completed early, squashed, or was recycled into a new life — are
// recognised by the epoch tag and the live iqFreeAt and skipped.
func (p *Pipeline) drainIQFrees() {
	ring := p.iqFreeRing[p.cycle&3]
	for _, f := range ring {
		u := f.u
		if u.epoch == f.epoch && u.inIQ && u.issued && u.iqFreeAt > 0 && p.cycle >= u.iqFreeAt {
			p.heldRemove(u)
			u.inIQ = false
		}
	}
	for i := range ring {
		ring[i] = uopRef{}
	}
	p.iqFreeRing[p.cycle&3] = ring[:0]
}

// refreshWake recomputes c's wake-up bound — the latest currently known
// ready time over its sources — and subscribes c to every source whose
// producer has not issued yet (readyAt == notReady), the only state a
// ready time can later decrease from. Sources with finite future ready
// times need no subscription: those only move later (replay re-issues
// happen strictly after the original issue), so the cached bound stays
// sound.
func (p *Pipeline) refreshWake(c *uop) {
	var wake int64
	for i := 0; i < c.nsrcs; i++ {
		s := c.srcs[i]
		if s == rename.NoReg {
			continue
		}
		v := p.readyAt[s]
		if v > wake {
			wake = v
		}
		if v == notReady {
			p.pregWaiters[s] = append(p.pregWaiters[s], uopRef{u: c, epoch: c.epoch})
		}
	}
	c.wakeAt = wake
}

// clearWaiters empties preg's subscription list.
func (p *Pipeline) clearWaiters(preg int) {
	refs := p.pregWaiters[preg]
	for i := range refs {
		refs[i] = uopRef{}
	}
	p.pregWaiters[preg] = refs[:0]
}

// wakeConsumers refreshes every candidate subscribed to preg after its
// ready time dropped from notReady to a concrete cycle at producer issue.
// The list is consumed whole: survivors still blocked on other not-issued
// sources re-subscribed to those inside refreshWake.
func (p *Pipeline) wakeConsumers(preg int) {
	refs := p.pregWaiters[preg]
	for i := range refs {
		if c := refs[i].u; c.epoch == refs[i].epoch {
			p.refreshWake(c)
		}
		refs[i] = uopRef{}
	}
	p.pregWaiters[preg] = refs[:0]
}

// ---------- events ----------

func (p *Pipeline) schedule(at int64, kind evKind, u *uop) {
	if u.pooled {
		panic("uarch: scheduling an event on a pooled uop")
	}
	if at <= p.cycle {
		at = p.cycle + 1
	}
	u.pendingEv++
	p.wheel.add(p.cycle, event{at: at, kind: kind, u: u, epoch: u.epoch})
}

// processEvents fires the events due this cycle and reports whether there
// were any.
func (p *Pipeline) processEvents() bool {
	evs := p.wheel.take(p.cycle)
	if len(evs) == 0 {
		return false
	}
	// Miss discoveries first: they may replay uops whose completion events
	// fire this very cycle. No event accounting here — the second pass
	// consumes every event exactly once.
	for _, e := range evs {
		if e.kind == evMissDiscover && e.epoch == e.u.epoch && !e.u.squashed {
			p.onMissDiscover(e.u)
		}
	}
	if p.replayedHeld {
		p.collectReplayed()
		p.replayedHeld = false
	}
	for _, e := range evs {
		u := e.u
		u.pendingEv--
		if e.epoch == u.epoch && !u.squashed {
			switch e.kind {
			case evComplete:
				p.onComplete(u)
			case evResolve:
				p.onResolve(u)
			}
		}
		if u.dead && u.pendingEv == 0 {
			p.recycle(u)
		}
	}
	return true
}

func (p *Pipeline) onComplete(u *uop) {
	if u.dataAt > p.cycle {
		// A cache miss stretched this operation; completion follows data.
		p.schedule(u.dataAt, evComplete, u)
		return
	}
	u.completed = true
	if u.inIQ {
		p.heldRemove(u) // completion always finds an issued entry
		u.inIQ = false
	}
}

func (p *Pipeline) onResolve(u *uop) {
	if p.pendingBr == u {
		p.pendingBr = nil
		p.fetchStall = p.cycle + 1
		if u.rec.CondBranch {
			p.pred.RecoverHistory(&u.bi, u.rec.Taken)
		}
	}
}

func (p *Pipeline) onMissDiscover(u *uop) {
	if u.isMG() && u.tmpl.InteriorLoad() {
		// §4.3: "it is not possible to reschedule only the mini-graph
		// subset that depends on the load, [so] the entire mini-graph must
		// be replayed".
		p.stats.MGReplays++
		resume := u.dataAt - u.memOffset()
		p.replay(u)
		if resume > u.minIssue {
			u.minIssue = resume
		}
		return
	}
	// Singleton load (or terminal mini-graph load): dependents that issued
	// in the speculative-wake-up shadow replay; the load itself stands.
	p.stats.LoadMissReplays++
	if u.dest != rename.NoReg {
		p.readyAt[u.dest] = u.dataAt
		p.replayConsumers(u.dest)
	}
}
