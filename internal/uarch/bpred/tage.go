package bpred

import "minigraph/internal/isa"

// TAGE is a TAGE-class direction predictor: a base bimodal table plus N
// partially tagged tables indexed by geometrically increasing global-history
// lengths. The longest matching table provides the prediction; on a
// misprediction an entry allocates in a longer table, steered away from
// entries whose useful counters are set. Useful counters age (halve)
// periodically so stale entries become reclaimable. All history lengths fit
// one 64-bit word, so the per-branch snapshot is exactly the hybrid's: the
// history value at prediction time, carried in BranchInfo.Hist.
type TAGE struct {
	targets
	cfg     Config
	nTables int
	histLen []int // per table, ascending
	idxBits int   // ceil(log2(TageEntries)), at least 1

	base   []uint8 // 2-bit bimodal fallback
	tables [][]tageEntry

	history uint64
	// useAltOnNA steers newly allocated (weak, not-useful) providers to the
	// alternate prediction when it has been the better choice lately.
	useAltOnNA int8
	rng        uint64 // deterministic xorshift for allocation start skew
	updates    int64  // retired conditional branches since the last aging

	condSeen, condHits int64
}

type tageEntry struct {
	tag uint16
	ctr int8  // signed 3-bit: >= 0 predicts taken
	u   uint8 // 2-bit useful counter
}

// NewTAGE builds a TAGE predictor.
func NewTAGE(cfg Config) *TAGE {
	cfg = cfg.withDefaults()
	t := &TAGE{
		cfg:     cfg,
		nTables: cfg.TageTables,
		targets: newTargets(cfg),
		rng:     0x9e3779b97f4a7c15,
	}
	// Geometric history lengths from TageMinHist to TageMaxHist.
	t.histLen = make([]int, t.nTables)
	lo, hi := float64(cfg.TageMinHist), float64(cfg.TageMaxHist)
	for i := 0; i < t.nTables; i++ {
		if t.nTables == 1 {
			t.histLen[i] = cfg.TageMaxHist
			continue
		}
		// lo * (hi/lo)^(i/(n-1)), computed without math.Pow so the lengths
		// are bit-exact across platforms: repeated geometric interpolation.
		frac := float64(i) / float64(t.nTables-1)
		l := int(lo*pow(hi/lo, frac) + 0.5)
		if l < 1 {
			l = 1
		}
		if l > 64 {
			l = 64
		}
		if i > 0 && l <= t.histLen[i-1] {
			l = t.histLen[i-1] + 1
		}
		t.histLen[i] = l
	}
	t.idxBits = 1
	for 1<<t.idxBits < cfg.TageEntries {
		t.idxBits++
	}
	t.base = make([]uint8, 4*cfg.TageEntries)
	for i := range t.base {
		t.base[i] = 1 // weakly not-taken
	}
	t.tables = make([][]tageEntry, t.nTables)
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, cfg.TageEntries)
	}
	return t
}

// pow is a deterministic x^y for x > 0 via exp/log-free binary
// exponentiation on the fractional part: y in [0,1] is expanded to 16
// binary digits, each contributing a repeated square root. sqrt itself is
// Newton's method, which converges identically everywhere (pure float64
// arithmetic, no libm).
func pow(x, y float64) float64 {
	r := 1.0
	s := x
	for i := 0; i < 16; i++ {
		s = sqrt(s)
		y *= 2
		if y >= 1 {
			r *= s
			y -= 1
		}
	}
	return r
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 64; i++ {
		ng := 0.5 * (g + x/g)
		if ng == g {
			break
		}
		g = ng
	}
	return g
}

// fold compresses the low bits history bits of h into out bits by xor.
func fold(h uint64, bits, out int) uint32 {
	if bits < 64 {
		h &= (uint64(1) << bits) - 1
	}
	var f uint64
	mask := (uint64(1) << out) - 1
	for h != 0 {
		f ^= h & mask
		h >>= out
	}
	return uint32(f)
}

func (t *TAGE) index(pc isa.PC, hist uint64, ti int) int {
	h := fold(hist, t.histLen[ti], t.idxBits)
	return int((uint32(pc) ^ uint32(uint64(pc)>>t.idxBits) ^ h ^ uint32(ti)) & uint32(t.cfg.TageEntries-1))
}

func (t *TAGE) tagOf(pc isa.PC, hist uint64, ti int) uint16 {
	tb := t.cfg.TageTagBits
	h1 := fold(hist, t.histLen[ti], tb)
	h2 := fold(hist, t.histLen[ti], tb-1) << 1
	return uint16((uint32(pc) ^ h1 ^ h2) & ((1 << tb) - 1))
}

func (t *TAGE) baseIdx(pc isa.PC) int {
	return int(uint64(pc) & uint64(len(t.base)-1))
}

// PredictDirection predicts a conditional branch at pc, recording in bi the
// history snapshot and the provider/alternate bookkeeping the retire-time
// update needs.
func (t *TAGE) PredictDirection(pc isa.PC, bi *BranchInfo) bool {
	bi.Hist = t.history
	bi.Provider, bi.ProvIdx = -1, 0
	provider, alt := -1, -1
	provIdx, altIdx := 0, 0
	for i := t.nTables - 1; i >= 0; i-- {
		idx := t.index(pc, t.history, i)
		if t.tables[i][idx].tag == t.tagOf(pc, t.history, i) {
			if provider < 0 {
				provider, provIdx = i, idx
			} else {
				alt, altIdx = i, idx
				break
			}
		}
	}
	altTaken := t.base[t.baseIdx(pc)] >= 2
	if alt >= 0 {
		altTaken = t.tables[alt][altIdx].ctr >= 0
	}
	taken := altTaken
	if provider >= 0 {
		e := &t.tables[provider][provIdx]
		provTaken := e.ctr >= 0
		taken = provTaken
		// A weak counter on a not-useful entry is (likely) newly allocated;
		// trust the alternate while use-alt-on-na says it is the better bet.
		weak := (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if weak && t.useAltOnNA >= 0 {
			taken = altTaken
		}
		bi.Provider, bi.ProvIdx = int8(provider), int32(provIdx)
		bi.ProvTaken, bi.ProvWeak = provTaken, weak
	} else {
		bi.ProvTaken, bi.ProvWeak = altTaken, false
	}
	bi.AltTaken = altTaken
	bi.Taken = taken
	t.history = t.history<<1 | b2u(taken)
	return taken
}

// RecoverHistory restores the global history after a misprediction.
func (t *TAGE) RecoverHistory(bi *BranchInfo, actualTaken bool) {
	t.history = bi.Hist<<1 | b2u(actualTaken)
}

// UpdateDirection trains the tables at retire, under the prediction-time
// state recorded in bi. Provider entries are revalidated by tag before
// training — the entry may have been reallocated to another branch between
// prediction and retire.
func (t *TAGE) UpdateDirection(pc isa.PC, bi *BranchInfo, taken bool) {
	t.condSeen++
	if taken == bi.Taken {
		t.condHits++
	}

	allocFrom := 0
	if bi.Provider >= 0 {
		pi := int(bi.Provider)
		allocFrom = pi + 1
		e := &t.tables[pi][bi.ProvIdx]
		if e.tag == t.tagOf(pc, bi.Hist, pi) {
			if bi.ProvWeak && bi.ProvTaken != bi.AltTaken {
				t.useAltOnNA = sat4(t.useAltOnNA, bi.AltTaken == taken)
			}
			if bi.ProvTaken != bi.AltTaken {
				if bi.ProvTaken == taken {
					if e.u < 3 {
						e.u++
					}
				} else if e.u > 0 {
					e.u--
				}
			}
			e.ctr = sat3(e.ctr, taken)
			// The base trains alongside a weak provider so the fallback
			// stays warm for reallocated slots.
			if bi.ProvWeak {
				bidx := t.baseIdx(pc)
				t.base[bidx] = sat(t.base[bidx], taken)
			}
		}
	} else {
		bidx := t.baseIdx(pc)
		t.base[bidx] = sat(t.base[bidx], taken)
	}

	// Allocate on a misprediction: claim a not-useful entry in a table with
	// a longer history. The start table is probabilistically skewed one
	// table up (deterministic xorshift) so correlated branches spread out;
	// if every candidate is useful, decay them all instead.
	if bi.Taken != taken && allocFrom < t.nTables {
		start := allocFrom
		if t.nTables-start > 1 && t.next()&1 == 1 {
			start++
		}
		allocated := false
		for j := start; j < t.nTables; j++ {
			idx := t.index(pc, bi.Hist, j)
			if t.tables[j][idx].u == 0 {
				ctr := int8(-1)
				if taken {
					ctr = 0
				}
				t.tables[j][idx] = tageEntry{tag: t.tagOf(pc, bi.Hist, j), ctr: ctr}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := allocFrom; j < t.nTables; j++ {
				idx := t.index(pc, bi.Hist, j)
				if e := &t.tables[j][idx]; e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Useful-counter aging: periodically halve every useful counter so
	// entries that stopped earning their keep become allocation victims.
	t.updates++
	if t.updates >= t.cfg.TageUsefulPeriod {
		t.updates = 0
		for i := range t.tables {
			tbl := t.tables[i]
			for j := range tbl {
				tbl[j].u >>= 1
			}
		}
	}
}

// DirStats returns conditional branches trained and correct predictions.
func (t *TAGE) DirStats() (seen, hits int64) { return t.condSeen, t.condHits }

// next steps the internal xorshift64 generator. Seeded at construction,
// never reseeded: runs are bit-for-bit reproducible.
func (t *TAGE) next() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// sat3 saturates a signed 3-bit counter in [-4, 3].
func sat3(c int8, up bool) int8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > -4 {
		return c - 1
	}
	return -4
}

// sat4 saturates a signed 4-bit counter in [-8, 7].
func sat4(c int8, up bool) int8 {
	if up {
		if c < 7 {
			return c + 1
		}
		return 7
	}
	if c > -8 {
		return c - 1
	}
	return -8
}
