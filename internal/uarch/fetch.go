package uarch

import (
	"minigraph/internal/isa"
)

// fetch models the front end: instruction-cache access, branch/target
// prediction, and delivery into the fetch-to-rename pipe. Fetch stalls on
// instruction-cache misses and on (full) branch mispredictions — the
// stall-until-resolve approximation of wrong-path execution. Nops (the
// residue of nop-fill rewriting) consume fetch slots and I-cache bandwidth
// but are dropped before rename, which is exactly the paper's
// no-compression measurement mode: fetch bandwidth is not amplified, all
// later stages are.
func (p *Pipeline) fetch() {
	if p.pendingBr != nil || p.cycle < p.fetchStall || p.cycle < p.icacheFill {
		return
	}
	slots := p.cfg.FetchWidth
	for slots > 0 && !p.frontend.full() {
		// Records are delivered straight into a uop's record slot — no
		// staging copy. A uop whose record turns out to be a nop (dropped
		// before rename) goes straight back to the pool untouched.
		var u *uop
		if p.pendingU != nil {
			u, p.pendingU = p.pendingU, nil
		} else {
			u = p.newUop()
			if !p.src.NextInto(&u.rec) {
				p.returnFresh(u)
				return
			}
		}
		// Instruction cache: one probe per line transition.
		line := isa.Addr(u.rec.PC.ByteAddr()) &^ isa.Addr(p.cfg.ICache.LineSize-1)
		if !p.haveFetchLine || line != p.lastFetchLine {
			ready, hit := p.icache.Access(p.cycle, u.rec.PC.ByteAddr(), false)
			p.lastFetchLine, p.haveFetchLine = line, true
			if !hit {
				p.icacheFill = ready
				p.pendingU = u
				return
			}
		}
		slots--
		p.stats.FetchedRecords++
		if u.rec.Op == isa.OpNop {
			p.stats.FetchedNops++
			p.returnFresh(u)
			continue
		}

		if u.rec.MGID >= 0 {
			u.tmpl = p.mgt.Template(u.rec.MGID)
			u.mg = p.mgt.Info(u.rec.MGID)
		}

		stop := false
		if u.rec.IsCtrl {
			stop = p.predictControl(u)
		}
		p.frontend.push(feEntry{u: u, readyAt: p.cycle + int64(p.cfg.FrontendDepth)})
		if stop {
			return
		}
	}
}

// predictControl runs the fetch-stage predictors for a control transfer and
// returns true if fetch must stop this cycle (taken branch, misprediction,
// or BTB-miss bubble).
func (p *Pipeline) predictControl(u *uop) (stopFetch bool) {
	rec := &u.rec
	// RAS maintenance happens at fetch; because fetch stalls on
	// mispredictions, the stack never needs repair.
	if rec.IsCall {
		p.pred.PushRAS(rec.FallPC)
	}

	if rec.CondBranch {
		u.predTaken = p.pred.PredictDirection(rec.PC, &u.bi)
	} else {
		u.predTaken = true
	}

	targetKnown := false
	if u.predTaken {
		if rec.IsRet {
			p.stats.RASPops++
			if t, ok := p.pred.PopRAS(); ok {
				u.predTarget, targetKnown = t, true
				if t == rec.NextPC {
					p.stats.RASHits++
				}
			}
		} else {
			p.stats.BTBLookups++
			if t, ok := p.pred.PredictTarget(rec.PC); ok {
				p.stats.BTBHits++
				u.predTarget, targetKnown = t, true
			}
		}
	}

	dirWrong := u.predTaken != rec.Taken
	switch {
	case dirWrong:
		u.mispredict = true
	case !rec.Taken:
		// Correctly predicted not-taken: fetch continues.
		return false
	case targetKnown && u.predTarget == rec.NextPC:
		// Correctly predicted taken: stop at the taken branch.
		return true
	case !targetKnown && !rec.Indirect:
		// Direct branch, right direction, no BTB entry: the target is
		// computed at decode — a short fetch bubble, not a full flush.
		u.btbMissOnly = true
		p.stats.BTBMissBubbles++
		p.fetchStall = p.cycle + 2
		return true
	default:
		// Wrong target (or indirect miss): full misprediction.
		u.mispredict = true
	}
	if u.mispredict {
		p.stats.Mispredicts++
		p.pendingBr = u
	}
	return true
}

// dispatch renames up to RenameWidth front-end uops in order and inserts
// them into the ROB, scheduler, and load/store queue. A handle dispatches
// exactly like a singleton: one ROB entry, one scheduler entry, at most one
// LSQ entry, at most one physical register — this is where rename
// bandwidth and register-file capacity amplification come from.
func (p *Pipeline) dispatch() {
	for n := 0; n < p.cfg.RenameWidth && p.frontend.len() > 0; n++ {
		fe := p.frontend.front()
		if fe.readyAt > p.cycle {
			return
		}
		u := fe.u
		if stall := p.dispatchStall(u); stall != nil {
			*stall++
			return
		}
		p.frontend.popFront()

		// Rename sources then destination (same-register reuse within one
		// instruction reads the old mapping, as in hardware).
		for i := 0; i < u.rec.NSrcs; i++ {
			u.srcs[u.nsrcs] = p.ren.Lookup(u.rec.Srcs[i])
			u.nsrcs++
		}
		if u.rec.Dest != isa.RNone {
			phys, undo, ok := p.ren.Allocate(u.rec.Dest)
			if !ok {
				panic("uarch: free list raced") // guarded above
			}
			u.dest, u.prev = phys, undo.Prev
			p.readyAt[phys] = notReady
			// A fresh register life starts with no wake-up subscribers;
			// whatever the previous life left (squash paths skip the
			// issue-time clear) is stale by epoch.
			p.clearWaiters(phys)
		}

		p.rob.push(u)
		if u.rec.Op != isa.OpHalt {
			u.inIQ = true
			p.refreshWake(u)
			p.candPush(u)
		} else {
			u.completed = true // halt: no execution
		}
		if u.isMem() {
			u.inLSQ = true
			p.lsq.push(u)
			if u.isStore() {
				u.waitSt = p.ssets.DispatchStore(u.rec.PC, u.rec.Seq)
				p.stats.Stores++
			} else {
				u.waitSt = p.ssets.DispatchLoad(u.rec.PC)
				p.stats.Loads++
			}
		}
	}
}

// dispatchStall returns the counter of the resource u is stalled on — the
// first, in dispatch's test order, that has no room for it — or nil if u
// can dispatch now. The halt takes no scheduler entry.
func (p *Pipeline) dispatchStall(u *uop) *int64 {
	switch {
	case p.rob.full():
		return &p.stats.StallROB
	case u.rec.Op != isa.OpHalt && p.iqLen() >= p.cfg.IQSize:
		return &p.stats.StallIQ
	case u.isMem() && p.lsq.full():
		return &p.stats.StallLSQ
	case u.rec.Dest != isa.RNone && p.ren.FreeCount() == 0:
		return &p.stats.StallRegs
	}
	return nil
}
