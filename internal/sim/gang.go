package sim

import (
	"context"
	"errors"

	"minigraph/internal/trace"
	"minigraph/internal/uarch"
)

// Gang replay: every arm of a configuration sweep over one binary consumes
// the byte-identical record stream (the config-free TraceKey guarantees
// it). Where replay is window-bounded, walking a private trace.Reader
// cursor end-to-end per arm faults every spilled chunk in from the store
// once per arm; instead RunEach groups a sweep's new jobs by TraceKey and
// runs each group as a *gang* — one goroutine interleaving all of the
// group's pipelines over one trace.GangReader, whose cursors share one
// chunk window. Each chunk is faulted in once, at the gang's leading
// cursor; every cursor decodes its own rows, and trailing arms find their
// chunk already resident. The scheduler steps pipelines round-robin in
// fixed cycle quanta and paces leaders so the gang's cursors stay inside
// the window's lag; an arm stalled on a long-latency event simply lags
// (its chunk still resident) while fast arms proceed. An engine whose
// traces are resident never gangs; planGangs says why.
//
// Gang execution is transparent: arms are registered in the engine's
// single-flight table exactly like Simulate leaders, so concurrent
// Simulate callers and overlapping sweeps share the in-flight results, and
// per-arm store read-before/write-through and error wrapping are identical
// to the solo path. Pipelines are self-contained state machines, so
// interleaving them in cycle chunks cannot change any result — gang
// reports are byte-identical to sequential per-arm execution (enforced by
// TestGangMatchesSequential). Singleton groups fall back to the plain
// Simulate path. Gangs group by TraceKey, not BinaryID, and a gang arm
// runs its own pipeline rather than sharing an aliased arm's run as solo
// replay does: the two recipes of one binary still share its trace
// (captureTrace), and no bounded-replay workload aliases.
const (
	// gangQuantum is the round-robin step size in cycles. Large enough that
	// a pipeline's working state stays hot for a useful burst, small enough
	// that the gang's trace cursors stay bunched inside the shared window.
	gangQuantum = 256

	// gangLead bounds how far (in trace records) an arm's cursor may run
	// ahead of the gang's slowest non-exhausted cursor before the scheduler
	// skips its turn. The lead plus one quantum's fetch overshoot plus the
	// deepest squash rewind stays well inside trace.DefaultGangWindow, the
	// lag a gang's chunk window spans: no arm re-faults another's chunk.
	gangLead = 2048
)

// gangMember is one arm of a gang: a job index from the sweep, its
// canonical key, and the single-flight call the gang will fulfill.
type gangMember struct {
	idx      int
	key      SimKey
	cfgName  string // display name, for error messages only
	c        *call[*Outcome]
	keyBytes []byte // store key, nil when no store is attached
}

// gang is one group of arms sharing a TraceKey, run by one goroutine.
type gang struct {
	pk   PrepareKey
	arms []*gangMember
}

// gangPlan is the outcome of planning one sweep: the gangs to run, and a
// per-job-index map to the registered call a waiter should block on.
// Indexes absent from byIndex (duplicates, already-cached keys, singleton
// groups; every index of the zero plan) go through the plain Simulate path.
type gangPlan struct {
	byIndex map[int]*call[*Outcome]
	gangs   []*gang
}

// planGangs decides how a sweep's jobs execute, from the engine's replay
// regime and nothing a caller sets. Under bounded replay every solo arm
// faults each chunk of its trace in from the store again, and a gang of n
// arms faults it once (n× fewer chunk faults and more arms/s on the
// store_stream benchmark). Over a resident trace a gang has no fault to
// share and the interleave only costs (config_sweep, store_warm), so a
// resident engine gets the zero plan before a lock or a key hash.
//
// Otherwise jobs are grouped by TraceKey and every gang arm is registered
// in the single-flight table. Keys already in flight (or cached) and
// duplicate keys within the sweep are left to Simulate; groups with fewer
// than two new keys fall back to the solo path and are counted as such.
//
// When the worker pool is larger than the number of multi-arm groups, each
// group is partitioned into up to workers/groups gangs (each at least two
// arms) so gang execution still saturates the pool; with one worker each
// group forms a single maximal-sharing gang.
func (e *Engine) planGangs(jobs []SimJob) gangPlan {
	if !e.boundedReplay() || e.live || len(jobs) < 2 {
		return gangPlan{}
	}
	// Validation and key hashing touch no engine state, so they run before
	// the lock every Simulate, trace touch and Stats call contends for.
	var groups []*gang // in order of first appearance
	byTrace := make(map[TraceKey]*gang)
	seen := make(map[SimKey]bool)
	for i, job := range jobs {
		if job.Config.Check() != nil {
			continue // impossible machine: Simulate refuses it cleanly
		}
		key := job.Key()
		if seen[key] {
			continue // in-sweep duplicate: waits via Simulate
		}
		seen[key] = true
		tk := key.TraceKey()
		g, ok := byTrace[tk]
		if !ok {
			g = &gang{pk: key.Prepare}
			byTrace[tk] = g
			groups = append(groups, g)
		}
		g.arms = append(g.arms, &gangMember{idx: i, key: key, cfgName: job.Config.Name})
	}

	// Look-up and registration share one critical section: that is what
	// makes a concurrent Simulate for a gang arm's key a waiter rather than
	// a second runner.
	e.mu.Lock()
	defer e.mu.Unlock()
	multi := 0
	for _, g := range groups {
		fresh := g.arms[:0]
		for _, m := range g.arms {
			if _, inflight := e.sims[m.key]; !inflight {
				fresh = append(fresh, m) // else cached or in flight: hits via Simulate
			}
		}
		if g.arms = fresh; len(fresh) == 1 {
			e.gangSolo.Add(1)
		} else if len(fresh) >= 2 {
			multi++
		}
	}
	plan := gangPlan{byIndex: make(map[int]*call[*Outcome])}
	for _, g := range groups {
		if len(g.arms) < 2 {
			continue
		}
		for _, m := range g.arms {
			m.c = &call[*Outcome]{done: make(chan struct{})}
			e.sims[m.key] = m.c
			plan.byIndex[m.idx] = m.c
		}
		pieces := e.workers / multi
		if pieces < 1 {
			pieces = 1
		}
		if max := len(g.arms) / 2; pieces > max {
			pieces = max
		}
		for _, arms := range splitArms(g.arms, pieces) {
			plan.gangs = append(plan.gangs, &gang{pk: g.pk, arms: arms})
		}
	}
	return plan
}

// splitArms partitions arms into n contiguous near-equal chunks.
func splitArms(arms []*gangMember, n int) [][]*gangMember {
	if n <= 1 {
		return [][]*gangMember{arms}
	}
	out := make([][]*gangMember, 0, n)
	base, rem := len(arms)/n, len(arms)%n
	for i, off := 0, 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, arms[off:off+size])
		off += size
	}
	return out
}

// fulfill completes one registered gang call with the same semantics as
// singleflight: a context-error result is evicted so a still-live waiter
// can take over, and the done channel is closed exactly once. A chunk-
// unavailable result (a spilled chunk vanished mid-interleave) is evicted
// for the same reason: the waiter retries through Simulate, whose layered
// recovery ends in a store-independent resident replay.
func (e *Engine) fulfill(m *gangMember, out *Outcome, err error) {
	m.c.val, m.c.err = out, err
	if isCtxErr(err) || errors.Is(err, trace.ErrChunkUnavailable) {
		e.mu.Lock()
		if e.sims[m.key] == m.c {
			delete(e.sims, m.key)
		}
		e.mu.Unlock()
	}
	close(m.c.done)
}

// waitGangCall blocks a sweep index on its gang arm's call. If the gang was
// canceled by a context that is not this waiter's (the call evicted, err a
// context error), or an arm lost a spilled chunk mid-interleave, the waiter
// takes over through the plain Simulate path — the same takeover rule
// singleflight applies, and Simulate's own chunk recovery handles the rest.
// The takeover must NOT run the replay inline here: the gang goroutine owns
// a worker slot, while this waiter holds none, so Simulate is free to
// acquire one.
func (e *Engine) waitGangCall(ctx context.Context, c *call[*Outcome], job SimJob) (*Outcome, error) {
	select {
	case <-c.done:
		if (isCtxErr(c.err) || errors.Is(c.err, trace.ErrChunkUnavailable)) && ctx.Err() == nil {
			return e.Simulate(ctx, job)
		}
		return c.val, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// gangArm is one member's live simulation state during the interleave.
type gangArm struct {
	m         *gangMember
	p         *uarch.Pipeline
	cur       *trace.GangCursor
	fulfilled bool
}

// runGang executes one gang: per-arm store pre-check, one shared capture,
// then all remaining arms interleaved on this goroutine over one
// GangReader's shared chunk window, holding a single worker slot. Every
// arm's call is fulfilled exactly once — with its outcome, its wrapped
// hard error, or the gang's context error (evicted for takeover).
func (e *Engine) runGang(ctx context.Context, g *gang) {
	e.gangsFormed.Add(1)
	e.gangArmsRun.Add(int64(len(g.arms)))
	e.simRuns.Add(int64(len(g.arms)))

	pending := g.arms
	failAll := func(err error) {
		for _, m := range pending {
			e.fulfill(m, nil, err)
		}
	}

	// Store read-before, arm by arm, exactly as in Simulate.
	kept := pending[:0:0]
	for _, m := range pending {
		var out *Outcome
		if m.keyBytes, out = e.loadOutcome(m.key); out != nil {
			e.fulfill(m, out, nil)
			continue
		}
		kept = append(kept, m)
	}
	pending = kept
	if len(pending) == 0 {
		return
	}

	pr, err := e.Prepare(ctx, g.pk)
	if err != nil {
		failAll(err)
		return
	}
	ct, tr, err := e.captureTrace(ctx, pending[0].key, pr)
	if err != nil {
		failAll(err)
		return
	}
	// One arm paid for (or found) the capture; every other arm replays an
	// existing trace, exactly as if it had asked captureTrace itself — keep
	// the operator-visible replay-hit counter meaning what it always meant.
	e.traceHits.Add(int64(len(pending) - 1))
	if err := e.acquire(ctx); err != nil {
		failAll(err)
		return
	}
	defer e.release()

	gr := trace.NewGangReaderWindowed(tr, ct.prog, trace.DefaultGangWindow, e.chunkWindow)
	defer func() { e.noteWindow(gr.WindowStats()) }()
	arms := make([]*gangArm, 0, len(pending))
	for _, m := range pending {
		cur := gr.Cursor(m.key.Config.MaxRecords)
		arms = append(arms, &gangArm{m: m, cur: cur, p: uarch.NewWithSource(m.key.Config, newMGT(m.key, ct.templates), cur)})
	}

	active := arms
	for len(active) > 0 {
		// Pace against the slowest cursor still consuming records; arms
		// that have exhausted the stream are only draining and neither
		// bound nor obey the lead.
		minCur := int64(-1)
		for _, a := range active {
			if !a.cur.Exhausted() && (minCur < 0 || a.cur.Cursor() < minCur) {
				minCur = a.cur.Cursor()
			}
		}
		next := active[:0]
		for _, a := range active {
			if minCur >= 0 && !a.cur.Exhausted() && a.cur.Cursor() > minCur+gangLead {
				next = append(next, a) // too far ahead: skip this turn
				continue
			}
			done, err := a.p.RunCycles(ctx, gangQuantum)
			switch {
			case err != nil && isCtxErr(err):
				for _, r := range arms {
					if !r.fulfilled {
						e.fulfill(r.m, nil, err)
					}
				}
				return
			case err != nil || done:
				e.finishArm(a, ct, err)
				a.fulfilled = true
			default:
				next = append(next, a)
			}
		}
		active = next
	}
	e.gangShared.Add(gr.SharedRecords())
}

// finishArm fulfills one arm's call — the tail of Simulate's solo path:
// with its hard error, or with its finalized statistics written through
// the store.
func (e *Engine) finishArm(a *gangArm, ct *capturedTrace, err error) {
	var res *uarch.Result
	if err == nil {
		res, err = a.p.Finish()
	}
	if res, err = e.ranArm(a.m.key, a.m.cfgName, res, err); err != nil {
		e.fulfill(a.m, nil, err)
		return
	}
	out := &Outcome{Result: res, Selection: ct.sel}
	e.saveOutcome(a.m.keyBytes, out)
	e.fulfill(a.m, out, nil)
}
