package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"minigraph/internal/serve"
)

// The program under test sees only serve.JobSpecs; everything random about
// a run is decided here, from -seed alone.

// Machine-point axes a JobSpec can override. Every combination passes
// uarch.Config.Check (TestGeneratedPointsResolve walks the whole product).
var (
	axisMemLatency = []int{80, 100, 120, 150, 200, 300}
	axisWidth      = []int{4, 6, 8}
	axisPhysRegs   = []int{100, 132, 164, 196}
	axisPredictor  = []string{"hybrid", "tage"}
	axisPrefetcher = []string{"none", "delta"}
)

// point is one machine configuration, as the JobSpec override fields.
type point struct {
	MemLatency int
	Width      int
	PhysRegs   int
	Predictor  string
	Prefetcher string
}

func (p point) String() string {
	return fmt.Sprintf("m%d.w%d.r%d.%s.%s", p.MemLatency, p.Width, p.PhysRegs, p.Predictor, p.Prefetcher)
}

func (p point) spec(bench, arm string) serve.JobSpec {
	return serve.JobSpec{
		Arm: arm, Bench: bench,
		MemLatency: p.MemLatency, Width: p.Width, PhysRegs: p.PhysRegs,
		Predictor: p.Predictor, Prefetcher: p.Prefetcher,
	}
}

// balancedColumn returns n draws from 0..levels-1 in which every level
// appears floor(n/levels) or ceil(n/levels) times, in seeded order. Host
// time per arm depends mostly on single axes (memory latency, width), so
// holding each axis's level counts fixed keeps a run's total work close to
// constant across seeds while the pairings still vary.
func balancedColumn(rng *rand.Rand, n, levels int) []int {
	order := rng.Perm(levels)
	col := make([]int, n)
	for i := range col {
		col[i] = order[i%levels]
	}
	rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
	return col
}

// points draws n distinct machine points with balanced axes. Colliding
// rows are re-paired by reshuffling one column; the full product has 288
// points, so n up to ~100 resolves in a few tries.
func points(rng *rand.Rand, n int) []point {
	total := len(axisMemLatency) * len(axisWidth) * len(axisPhysRegs) * len(axisPredictor) * len(axisPrefetcher)
	if n > total {
		panic(fmt.Sprintf("bench: %d distinct points requested, the axes span %d", n, total))
	}
	for {
		ml := balancedColumn(rng, n, len(axisMemLatency))
		w := balancedColumn(rng, n, len(axisWidth))
		pr := balancedColumn(rng, n, len(axisPhysRegs))
		bp := balancedColumn(rng, n, len(axisPredictor))
		pf := balancedColumn(rng, n, len(axisPrefetcher))
		out := make([]point, n)
		seen := make(map[point]bool, n)
		for i := range out {
			out[i] = point{axisMemLatency[ml[i]], axisWidth[w[i]], axisPhysRegs[pr[i]], axisPredictor[bp[i]], axisPrefetcher[pf[i]]}
			seen[out[i]] = true
		}
		if len(seen) == n {
			return out
		}
	}
}

// sweepSpecs crosses benches with one shared point list: every bench gets
// the same machines, so each trace group has len(pts) arms.
func sweepSpecs(benches []string, pts []point) []serve.JobSpec {
	specs := make([]serve.JobSpec, 0, len(benches)*len(pts))
	for _, b := range benches {
		for _, p := range pts {
			specs = append(specs, p.spec(b, b+"@"+p.String()))
		}
	}
	return specs
}

// request is one /v1/sweep call of the serve_tier workload.
type request struct {
	Sweep    serve.SweepRequest
	RepeatOf int // index of the request this one repeats exactly, or -1
}

// serveRequests builds the serve_tier request list: perBench fresh
// armsPer-arm sweeps for each bench (fresh machine points, never reused)
// plus repeats exact repeats of earlier requests.
//
// Order is seeded but constrained: fresh requests go out in blocks that
// touch every bench once — the first in list order, each later one a seeded
// rotation of it — and repeats land at seeded positions after the first. All four arms
// of a sweep share a trace key and so one single-slot worker: which worker
// two in-flight sweeps hit decides whether they overlap or queue, and a
// free shuffle lets that collision pattern (and with it throughput and the
// latency tail, by 20 %) depend on the seed; rotations keep the pattern and
// move its phase. The first block holds every first touch, so by the time
// the third worker joins (half way) each trace has been captured somewhere
// and a capture after the join is a re-capture. A bench's points are dealt
// to its requests by memory-latency rank (the axis that moves an arm's cost
// most), so requests cost about the same. round splits the list at len/2.
func serveRequests(rng *rand.Rand, benches []string, perBench, repeats, armsPer int) []request {
	fresh := make([][]request, perBench) // fresh[block] holds one request per bench
	for _, b := range benches {
		pts := points(rng, perBench*armsPer)
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].MemLatency < pts[j].MemLatency })
		for r := 0; r < perBench; r++ {
			var req serve.SweepRequest
			for a := 0; a < armsPer; a++ {
				// Snake deal: rank a*perBench+r on even rows, mirrored on odd.
				k := a*perBench + r
				if a%2 == 1 {
					k = a*perBench + perBench - 1 - r
				}
				req.Jobs = append(req.Jobs, pts[k].spec(b, pts[k].String()))
			}
			fresh[r] = append(fresh[r], request{Sweep: req, RepeatOf: -1})
		}
	}
	var out, tail []request
	for block, reqs := range fresh {
		if block == 0 {
			// First touches in list order: they are the slowest requests, so
			// their collision pattern is the latency tail.
			out = reqs
			continue
		}
		rot := rng.Intn(len(reqs))
		tail = append(append(tail, reqs[rot:]...), reqs[:rot]...)
	}
	// Repeats are slotted among the later blocks; each repeats a fresh
	// request that precedes it in the same half of the list. The third
	// worker joins at the half-way barrier and takes some keys over with an
	// empty memo, so a repeat across the barrier is a memo hit or a full
	// recompute depending on where the seed put it; within a half it is
	// always a memo hit, and the share of fast requests (and with it the rank
	// req_p50_ms falls on) is the same for every seed. The first slot of the
	// second half stays fresh so that every repeat there has an origin.
	half := (len(benches)*perBench + repeats) / 2
	slots := make([]bool, len(tail)+repeats)
	left := repeats
	for _, i := range rng.Perm(len(slots)) {
		if left > 0 && len(out)+i != half {
			slots[i] = true
			left--
		}
	}
	next := 0
	for _, isRepeat := range slots {
		if !isRepeat {
			out = append(out, tail[next])
			next++
			continue
		}
		lo := 0
		if len(out) > half {
			lo = half
		}
		of := lo + rng.Intn(len(out)-lo)
		for out[of].RepeatOf >= 0 {
			of = out[of].RepeatOf
		}
		out = append(out, request{RepeatOf: of})
	}
	for i := range out {
		if out[i].RepeatOf >= 0 {
			continue
		}
		// The sweep name and arm labels carry the request id, so the traced
		// run's middleware can tie a worker's /v1/outcome call to its sweep.
		out[i].Sweep.Name = fmt.Sprintf("r%d", i)
		for a := range out[i].Sweep.Jobs {
			out[i].Sweep.Jobs[a].Arm = fmt.Sprintf("r%d/%s", i, out[i].Sweep.Jobs[a].Arm)
		}
	}
	for i := range out {
		if of := out[i].RepeatOf; of >= 0 {
			out[i].Sweep = out[of].Sweep
		}
	}
	return out
}

// specsHash fingerprints a generated input list: equal seeds must hash
// equal, different seeds differently.
func specsHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // JobSpecs are plain data
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8])
}
