package core

import (
	"container/heap"
	"sort"

	"minigraph/internal/isa"
	"minigraph/internal/program"
)

// Selected pairs an instance with the MGT entry it was assigned.
type Selected struct {
	Instance *Instance
	MGID     int
}

// Selection is the result of mini-graph selection for one program: the MGT
// contents and the chosen static instances.
type Selection struct {
	// Templates holds the MGT contents; the slice index is the MGID.
	Templates []*Template
	// Instances are the selected static mini-graph occurrences.
	Instances []Selected
	// CoveredInsts is the number of dynamic instructions removed from the
	// pipeline: Σ over instances of (size-1) × frequency.
	CoveredInsts int64
	// TotalInsts is the profile's dynamic instruction count.
	TotalInsts int64
	// CandidateCount is the number of legal candidates enumerated.
	CandidateCount int
}

// Coverage is the fraction of dynamic instructions removed from the
// pipeline (the paper's benefit metric, §3.2).
func (s *Selection) Coverage() float64 {
	if s.TotalInsts == 0 {
		return 0
	}
	return float64(s.CoveredInsts) / float64(s.TotalInsts)
}

// group aggregates the instances of one coalesced template.
type group struct {
	key       string
	tmpl      *Template
	instances []*Instance
	freqs     []int64
	benefit   int64 // cached; recomputed lazily during selection
	index     int   // heap bookkeeping
}

type groupHeap []*group

func (h groupHeap) Len() int            { return len(h) }
func (h groupHeap) Less(i, j int) bool  { return h[i].benefit > h[j].benefit }
func (h groupHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *groupHeap) Push(x interface{}) { g := x.(*group); g.index = len(*h); *h = append(*h, g) }
func (h *groupHeap) Pop() interface{} {
	old := *h
	n := len(old)
	g := old[n-1]
	*h = old[:n-1]
	return g
}

// Select runs the paper's greedy selection (§3.2) over candidate instances:
// candidates coalesce by template identity, are prioritised by estimated
// coverage (n-1)×f, and are chosen until the candidate list is exhausted or
// the MGT entry limit is reached. A static instruction belongs to at most
// one mini-graph, so committing a template invalidates overlapping
// instances; the implementation uses lazy re-evaluation on a max-heap,
// which is equivalent to the paper's re-weight-every-iteration loop.
func Select(g *program.CFG, prof *program.Profile, cands []*Instance, mgtEntries int) *Selection {
	sel := &Selection{TotalInsts: prof.DynInsts, CandidateCount: len(cands)}

	groups := make(map[string]*group)
	for _, c := range cands {
		f := prof.BlockFreq(g.Blocks[c.Block])
		k := c.Tmpl.Key()
		gr := groups[k]
		if gr == nil {
			gr = &group{key: k, tmpl: c.Tmpl}
			groups[k] = gr
		}
		gr.instances = append(gr.instances, c)
		gr.freqs = append(gr.freqs, f)
	}

	used := make(map[isa.PC]bool)
	accepted := make(map[int][]*Instance) // block -> committed instances
	free := func(c *Instance) bool {
		for _, pc := range c.Members {
			if used[pc] {
				return false
			}
		}
		// Committing must not invert a dependence against a graph already
		// collapsed in the same block (see interfere.go). Both conditions
		// only tighten over time, so the lazy heap stays valid.
		return crossOK(g.Prog, c, accepted[c.Block])
	}
	benefit := func(gr *group) int64 {
		var b int64
		for i, c := range gr.instances {
			if free(c) {
				b += int64(c.Size()-1) * gr.freqs[i]
			}
		}
		return b
	}

	h := make(groupHeap, 0, len(groups))
	// Deterministic heap seeding (map iteration order is random).
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gr := groups[k]
		gr.benefit = benefit(gr)
		if gr.benefit > 0 {
			h = append(h, gr)
		}
	}
	heap.Init(&h)

	for h.Len() > 0 && len(sel.Templates) < mgtEntries {
		gr := heap.Pop(&h).(*group)
		cur := benefit(gr)
		if cur <= 0 {
			continue
		}
		if h.Len() > 0 && cur < h[0].benefit {
			gr.benefit = cur
			heap.Push(&h, gr)
			continue
		}
		// Commit this template: claim all still-free instances.
		mgid := len(sel.Templates)
		sel.Templates = append(sel.Templates, gr.tmpl)
		for i, c := range gr.instances {
			if !free(c) {
				continue
			}
			for _, pc := range c.Members {
				used[pc] = true
			}
			accepted[c.Block] = append(accepted[c.Block], c)
			sel.Instances = append(sel.Instances, Selected{Instance: c, MGID: mgid})
			sel.CoveredInsts += int64(c.Size()-1) * gr.freqs[i]
		}
	}
	// Deterministic instance order (by anchor PC) for reproducible rewrites.
	sort.Slice(sel.Instances, func(i, j int) bool {
		return sel.Instances[i].Instance.Anchor < sel.Instances[j].Instance.Anchor
	})
	return sel
}

// Extract is the end-to-end extraction pipeline: enumerate legal candidates
// under pol, then greedily select up to mgtEntries templates by profile
// coverage.
func Extract(g *program.CFG, lv *program.Liveness, prof *program.Profile, pol Policy, mgtEntries int) *Selection {
	cands := Enumerate(g, lv, pol)
	return Select(g, prof, cands, mgtEntries)
}

// DomainProgram bundles one program's analysis for domain-specific
// selection (Figure 5, bottom).
type DomainProgram struct {
	CFG     *program.CFG
	Live    *program.Liveness
	Profile *program.Profile
}

// SelectDomain picks a single shared MGT across several programs: templates
// coalesce across programs and are ranked by their summed coverage, then
// each program's selection is reported against the shared table. This
// reproduces the paper's domain-specific mini-graph experiment.
func SelectDomain(progs []DomainProgram, pol Policy, mgtEntries int) []*Selection {
	type domGroup struct {
		tmpl    *Template
		benefit int64
		// per-program free instances
		per [][]*Instance
		fr  [][]int64
	}
	groups := make(map[string]*domGroup)
	allCands := make([][]*Instance, len(progs))
	for pi, dp := range progs {
		cands := Enumerate(dp.CFG, dp.Live, pol)
		allCands[pi] = cands
		for _, c := range cands {
			// Normalise frequency to per-million instructions so programs
			// with longer runs do not dominate the shared table.
			f := dp.Profile.BlockFreq(dp.CFG.Blocks[c.Block])
			norm := int64(0)
			if dp.Profile.DynInsts > 0 {
				norm = f * 1_000_000 / dp.Profile.DynInsts
			}
			k := c.Tmpl.Key()
			gr := groups[k]
			if gr == nil {
				gr = &domGroup{tmpl: c.Tmpl, per: make([][]*Instance, len(progs)), fr: make([][]int64, len(progs))}
				groups[k] = gr
			}
			gr.per[pi] = append(gr.per[pi], c)
			gr.fr[pi] = append(gr.fr[pi], f)
			gr.benefit += int64(c.Size()-1) * norm
		}
	}
	// Rank templates by summed normalised benefit (static ranking: the
	// shared-table experiment in the paper ranks by suite-wide frequency).
	type kv struct {
		k string
		g *domGroup
	}
	ranked := make([]kv, 0, len(groups))
	for k, gr := range groups {
		ranked = append(ranked, kv{k, gr})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].g.benefit != ranked[j].g.benefit {
			return ranked[i].g.benefit > ranked[j].g.benefit
		}
		return ranked[i].k < ranked[j].k
	})
	if len(ranked) > mgtEntries {
		ranked = ranked[:mgtEntries]
	}

	// Build each program's selection constrained to the shared table.
	sels := make([]*Selection, len(progs))
	for pi, dp := range progs {
		sel := &Selection{TotalInsts: dp.Profile.DynInsts, CandidateCount: len(allCands[pi])}
		used := make(map[isa.PC]bool)
		accepted := make(map[int][]*Instance)
		for mgid, r := range ranked {
			gr := r.g
			committed := false
			for i, c := range gr.per[pi] {
				ok := true
				for _, pc := range c.Members {
					if used[pc] {
						ok = false
						break
					}
				}
				if ok && !crossOK(dp.CFG.Prog, c, accepted[c.Block]) {
					ok = false
				}
				if !ok {
					continue
				}
				for _, pc := range c.Members {
					used[pc] = true
				}
				accepted[c.Block] = append(accepted[c.Block], c)
				sel.Instances = append(sel.Instances, Selected{Instance: c, MGID: mgid})
				sel.CoveredInsts += int64(c.Size()-1) * gr.fr[pi][i]
				committed = true
			}
			_ = committed
			sel.Templates = append(sel.Templates, gr.tmpl)
		}
		sort.Slice(sel.Instances, func(i, j int) bool {
			return sel.Instances[i].Instance.Anchor < sel.Instances[j].Instance.Anchor
		})
		sels[pi] = sel
	}
	return sels
}
