package uarch

import "sort"

// This file implements the pipeline's event timer: a hierarchical timing
// wheel with a sorted overflow bucket.
//
// The previous implementation was a single fixed ring of eventHorizon
// (1024) slots whose schedule() CLAMPED any event farther out than the
// horizon to cycle+1023 — silently firing long-latency events early. Most
// call sites recovered by re-checking and re-scheduling, but any event
// whose handler trusted the fire cycle (a completion whose latency alone
// exceeds the horizon) completed early, and every clamped event burned a
// spurious wakeup per horizon crossed. The wheel below is overflow-safe by
// construction: an event scheduled at cycle T fires at exactly cycle T, no
// matter how far away T is.
//
// Structure (classic hierarchical timing wheel):
//
//   - near: one slot per cycle for the current nearSlots-cycle "page".
//   - far: one slot per page for the next farSlots pages. When the clock
//     crosses into a new page, that page's far slot is redistributed into
//     the near wheel.
//   - overflow: events beyond the far wheel's span, kept sorted by fire
//     cycle; at each page boundary the events that came within the span
//     migrate into the far wheel.
//
// All slot backing arrays are retained and reused (len reset to 0), so the
// steady-state hot loop performs no allocations. Events that share a fire
// cycle are processed in the order they were scheduled, exactly like the
// old flat ring, so simulation results are bit-identical for configurations
// that never exceeded the old horizon.

const (
	nearBits  = 10
	nearSlots = 1 << nearBits // cycles per page
	nearMask  = nearSlots - 1
	farSlots  = 64 // pages covered by the second level
	farMask   = farSlots - 1
	wheelSpan = int64(nearSlots) * int64(farSlots) // cycles covered by near+far
)

// event is one scheduled wakeup. The epoch snapshot invalidates the event
// if the uop is replayed, squashed, or recycled before it fires.
type event struct {
	at    int64
	kind  evKind
	u     *uop
	epoch int
}

type eventWheel struct {
	near     [nearSlots][]event
	far      [farSlots][]event
	overflow []event // sorted by at ascending; stable for equal at
}

// add schedules e (e.at must be > now; the caller guarantees it).
func (w *eventWheel) add(now int64, e event) {
	page, nowPage := e.at>>nearBits, now>>nearBits
	switch {
	case page == nowPage:
		s := e.at & nearMask
		w.near[s] = append(w.near[s], e)
	case page-nowPage < int64(farSlots):
		s := page & farMask
		w.far[s] = append(w.far[s], e)
	default:
		// Beyond the far wheel: insert into the sorted overflow bucket.
		// Insertion is rare (it takes a multi-thousand-cycle latency chain
		// to get here), so the copy cost is irrelevant.
		i := sort.Search(len(w.overflow), func(i int) bool { return w.overflow[i].at > e.at })
		w.overflow = append(w.overflow, event{})
		copy(w.overflow[i+1:], w.overflow[i:])
		w.overflow[i] = e
	}
}

// take returns the events due at cycle now, resetting their slot for
// reuse. The returned slice is valid until the slot's cycle comes around
// again (one full page), far longer than the caller's processing loop.
// Call exactly once per cycle with a monotonically increasing clock.
func (w *eventWheel) take(now int64) []event {
	if now&nearMask == 0 {
		w.promote(now)
	}
	s := now & nearMask
	evs := w.near[s]
	w.near[s] = evs[:0]
	return evs
}

// nextDue returns the first cycle after now at which take has work — a
// non-empty slot of the current page, or the page boundary, where promote
// runs — or limit, if that comes first. Between now and the result, take
// would return nothing and may be left uncalled.
func (w *eventWheel) nextDue(now, limit int64) int64 {
	for c := now + 1; c < limit; c++ {
		if c&nearMask == 0 || len(w.near[c&nearMask]) > 0 {
			return c
		}
	}
	return limit
}

// promote runs at each page boundary: overflow events that came within the
// far wheel's span migrate inward, and the entered page's far slot is
// redistributed into the near wheel.
func (w *eventWheel) promote(now int64) {
	nowPage := now >> nearBits
	if len(w.overflow) > 0 {
		maxPage := nowPage + int64(farSlots) - 1
		n := 0
		for n < len(w.overflow) && w.overflow[n].at>>nearBits <= maxPage {
			n++
		}
		if n > 0 {
			for _, e := range w.overflow[:n] {
				if e.at>>nearBits == nowPage {
					w.near[e.at&nearMask] = append(w.near[e.at&nearMask], e)
				} else {
					w.far[(e.at>>nearBits)&farMask] = append(w.far[(e.at>>nearBits)&farMask], e)
				}
			}
			w.overflow = w.overflow[:copy(w.overflow, w.overflow[n:])]
		}
	}
	s := nowPage & farMask
	for _, e := range w.far[s] {
		w.near[e.at&nearMask] = append(w.near[e.at&nearMask], e)
	}
	w.far[s] = w.far[s][:0]
}
