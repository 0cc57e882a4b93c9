// Package sched provides the scheduler building blocks: the sliding-window
// resource reservation bitmap of §4.3 and per-cycle issue-port accounting.
//
// A sliding-window scheduler extends a conventional scheduler's forward
// reservation bitmap (used to reserve register write ports for multi-cycle
// operations) in two dimensions: resources now include functional units,
// and the time horizon extends to the maximum mini-graph execution latency.
// Issuing an integer-memory handle ANDs its FUBMP against the window; a
// clear result reserves all units at once, a conflict cancels issue for
// that cycle (§4.3, "Basic operation").
package sched

import (
	"fmt"

	"minigraph/internal/core"
)

// Resource identifies one reservable unit class in the window.
type Resource int

// Window resources. WrPort is the register-file write-port pool; the rest
// mirror core.FU classes.
const (
	ResALU Resource = iota
	ResAP
	ResLoad
	ResStore
	ResFP
	ResWrPort
	numResources
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResALU:
		return "ALU"
	case ResAP:
		return "AP"
	case ResLoad:
		return "LD"
	case ResStore:
		return "ST"
	case ResFP:
		return "FP"
	case ResWrPort:
		return "WR"
	}
	return "?"
}

// FromFU maps MGHT functional-unit classes to window resources.
func FromFU(fu core.FU) Resource {
	switch fu {
	case core.FUALU:
		return ResALU
	case core.FUAP:
		return ResAP
	case core.FULoad:
		return ResLoad
	case core.FUStore:
		return ResStore
	}
	return ResALU
}

// Capacities is the per-resource unit count, indexed by Resource. A plain
// array (rather than a map) keeps window construction and accounting
// allocation-free and branch-cheap on the per-cycle path.
type Capacities [numResources]int

// Window is the two-dimensional reservation bitmap: counts[cycle][resource]
// versus per-resource capacity. Cycles are a ring over the window horizon;
// the counts live in one flat slab, slot-major, so the several same-cycle
// probes the select loop makes land on one cache line and Tick's clear of
// an expired slot is one contiguous run.
type Window struct {
	horizon int
	mask    int64 // horizon-1 when horizon is a power of two, else 0
	cap     Capacities
	counts  []int // horizon × numResources, counts[slot*numResources+r]
}

// NewWindow builds a window covering horizon future cycles.
func NewWindow(horizon int, capacity Capacities) *Window {
	w := &Window{
		horizon: horizon,
		cap:     capacity,
		counts:  make([]int, int(numResources)*horizon),
	}
	if horizon&(horizon-1) == 0 {
		w.mask = int64(horizon - 1)
	}
	return w
}

func (w *Window) slot(cycle int64) int {
	if w.mask != 0 {
		return int(cycle & w.mask)
	}
	return int(cycle % int64(w.horizon))
}

func (w *Window) idx(r Resource, cycle int64) int {
	return w.slot(cycle)*int(numResources) + int(r)
}

// Available reports whether one unit of r is free at cycle.
func (w *Window) Available(r Resource, cycle int64) bool {
	return w.counts[w.idx(r, cycle)] < w.cap[r]
}

// Reserve takes one unit of r at cycle.
func (w *Window) Reserve(r Resource, cycle int64) {
	w.counts[w.idx(r, cycle)]++
}

// Cancel returns one unit of r at cycle (replay/squash recovery).
func (w *Window) Cancel(r Resource, cycle int64) {
	i := w.idx(r, cycle)
	if w.counts[i] > 0 {
		w.counts[i]--
	}
}

// Tick clears the slot belonging to the cycle that just completed; the ring
// slot is reused for cycle now+horizon-1.
func (w *Window) Tick(now int64) {
	s := w.slot(now+int64(w.horizon)-1) * int(numResources)
	row := w.counts[s : s+int(numResources)]
	for i := range row {
		row[i] = 0
	}
}

// CheckFUBmp performs the sliding-window AND: it reports whether FU0 at
// cycle now and every FUBMP entry at its offset are available.
func (w *Window) CheckFUBmp(now int64, ei *core.ExecInfo) bool {
	if ei.TotalLat >= w.horizon {
		return false // graph longer than the window: never schedulable
	}
	if !w.Available(FromFU(ei.FU0), now) {
		return false
	}
	for c := 1; c < len(ei.FUBmp); c++ {
		if ei.FUBmp[c] == core.FUNone {
			continue
		}
		if !w.Available(FromFU(ei.FUBmp[c]), now+int64(c)) {
			return false
		}
	}
	return true
}

// ReserveFUBmp performs the sliding-window OR: it reserves FU0 and every
// FUBMP unit. Call only after CheckFUBmp succeeded this cycle.
func (w *Window) ReserveFUBmp(now int64, ei *core.ExecInfo) {
	w.Reserve(FromFU(ei.FU0), now)
	for c := 1; c < len(ei.FUBmp); c++ {
		if ei.FUBmp[c] != core.FUNone {
			w.Reserve(FromFU(ei.FUBmp[c]), now+int64(c))
		}
	}
}

// CancelFUBmp undoes ReserveFUBmp (mini-graph replay).
func (w *Window) CancelFUBmp(issuedAt int64, ei *core.ExecInfo) {
	w.Cancel(FromFU(ei.FU0), issuedAt)
	for c := 1; c < len(ei.FUBmp); c++ {
		if ei.FUBmp[c] != core.FUNone {
			w.Cancel(FromFU(ei.FUBmp[c]), issuedAt+int64(c))
		}
	}
}

// String renders current occupancy for debugging.
func (w *Window) String() string {
	s := ""
	for r := Resource(0); r < numResources; r++ {
		row := make([]int, w.horizon)
		for c := 0; c < w.horizon; c++ {
			row[c] = w.counts[c*int(numResources)+int(r)]
		}
		s += fmt.Sprintf("%s(cap %d): %v\n", r, w.cap[r], row)
	}
	return s
}
