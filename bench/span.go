package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span whose
// interval contains this one (containment: self time subtracts children);
// After is the span whose result this one needed before it could start
// (dependency: the critical path follows it). Either may be -1.
type span struct {
	Name   string
	Arm    string
	Lane   int // trace-viewer row: 0 layer replay, then one per client / server
	Parent int
	After  int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// boundary. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, arm string, lane, parent, after int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Arm: arm, Lane: lane, Parent: parent, After: after, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover. Overlapping children (parallel fan-out under one parent)
// are merged first, so covered time is never subtracted twice, and a child
// is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - cover(spans, kids[i], s.Start, s.End)
	}
	return self
}

// cover is the length of the union of the given spans' intervals, clipped
// to [lo, hi].
func cover(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// criticalPath returns the longest dependency chain among the spans of one
// lane: the maximum over spans of the span's duration plus the chain it
// waited for (After). This is the time the lane's work would take on
// unboundedly many cores.
func criticalPath(spans []span, lane int) time.Duration {
	memo := make([]time.Duration, len(spans))
	done := make([]bool, len(spans))
	var chain func(i int) time.Duration
	chain = func(i int) time.Duration {
		if done[i] {
			return memo[i]
		}
		done[i] = true // spans only depend on earlier ids; this also breaks a malformed cycle
		d := spans[i].dur()
		if a := spans[i].After; a >= 0 && a < len(spans) && a != i {
			d += chain(a)
		}
		memo[i] = d
		return d
	}
	var best time.Duration
	for i := range spans {
		if spans[i].Lane != lane {
			continue
		}
		if d := chain(i); d > best {
			best = d
		}
	}
	return best
}

// sumByName totals a per-span quantity by span name.
func sumByName(spans []span, per []time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += per[i]
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "after": s.After, "arm": s.Arm},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
