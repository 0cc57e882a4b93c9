package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {95, 38.5}, {-5, 10}, {150, 40},
	} {
		if got := percentile(xs, c.p); !approx(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	// 320 samples: p95 sits at rank 303.05 of 0..319, so 16 lie above it;
	// p50 of 320 leaves 160.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{320, 95, 16}, {320, 50, 160}, {64, 95, 4}, {3, 95, 1}, {1, 95, 0}, {0, 95, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	if q1, q3 := quartiles(ten); !approx(q1, 2.75) || !approx(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{8, 1, 4, 2}); !approx(q1, 1.25) || !approx(q3, 7) {
		t.Errorf("quartiles(1,2,4,8) = %v, %v; want 1.25, 7", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 5.5]: extrapolates past the ends.
	if q1, q3 := quartiles([]float64{3, 5}); !approx(q1, 2.5) || !approx(q3, 5.5) {
		t.Errorf("quartiles(3,5) = %v, %v; want 2.5, 5.5", q1, q3)
	}
	if got := spread(ten); !approx(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := geomean([]float64{2, 8}); !approx(got, 4) {
		t.Errorf("geomean(2, 8) = %v", got)
	}
}

// ms builds a hand-made span.
func ms(name string, lane, parent, after int, start, end int) span {
	return span{Name: name, Lane: lane, Parent: parent, After: after,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		ms("root", 0, -1, -1, 0, 100),    // 0: children cover [10,60) and [70,80)
		ms("kid", 0, 0, -1, 10, 40),      // 1
		ms("kid", 0, 0, -1, 30, 60),      // 2: overlaps 1 (parallel fan-out), merged not double-counted
		ms("kid", 0, 0, -1, 70, 80),      // 3
		ms("grandkid", 0, 1, -1, 15, 20), // 4
		ms("late", 0, 0, -1, 95, 130),    // 5: clipped to the parent's end
		ms("stray", 0, 99, -1, 0, 5),     // 6: parent id out of range, treated as a root
	}
	self := selfTimes(spans)
	want := []int{100 - 50 - 10 - 5, 30 - 5, 30, 10, 5, 35, 5}
	for i, w := range want {
		if self[i] != time.Duration(w)*time.Millisecond {
			t.Errorf("self[%d] (%s) = %v, want %dms", i, spans[i].Name, self[i], w)
		}
	}
	byName := sumByName(spans, self)
	if byName["kid"] != 65*time.Millisecond {
		t.Errorf("kid self total = %v, want 65ms", byName["kid"])
	}
}

func TestCriticalPath(t *testing.T) {
	// Two binaries on lane 0: build -> capture -> arms. The longest chain is
	// b's: 10 + 30 + 50 = 90ms, although a's work totals more.
	spans := []span{
		ms("build.a", 0, -1, -1, 0, 20),      // 0
		ms("capture.a", 0, -1, 0, 20, 40),    // 1
		ms("arm.a1", 0, -1, 1, 40, 70),       // 2: 20+20+30 = 70
		ms("arm.a2", 0, -1, 1, 70, 110),      // 3: 20+20+40 = 80
		ms("build.b", 0, -1, -1, 110, 120),   // 4
		ms("capture.b", 0, -1, 4, 120, 150),  // 5
		ms("arm.b1", 0, -1, 5, 150, 200),     // 6: 10+30+50 = 90
		ms("other.lane", 1, -1, -1, 0, 5000), // 7: not on the lane asked about
	}
	if got := criticalPath(spans, 0); got != 90*time.Millisecond {
		t.Errorf("critical path = %v, want 90ms", got)
	}
	if got := criticalPath(spans, 1); got != 5*time.Second {
		t.Errorf("lane 1 critical path = %v, want 5s", got)
	}
	if got := criticalPath(nil, 0); got != 0 {
		t.Errorf("empty critical path = %v", got)
	}
	// A malformed self-dependency must not loop.
	if got := criticalPath([]span{ms("x", 0, -1, 0, 0, 7)}, 0); got != 7*time.Millisecond {
		t.Errorf("self-dependent span = %v, want 7ms", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "", 0, -1, -1)
	if id != -1 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	live := newTracer()
	a := live.begin("a", "arm", 2, -1, -1)
	b := live.begin("b", "", 2, a, -1)
	live.end(b)
	live.end(a)
	spans := live.snapshot()
	if len(spans) != 2 || spans[1].Parent != a || spans[0].End < spans[1].End {
		t.Errorf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome trace: %v %+v", err, doc)
	}
}

// inputsHash fingerprints everything the generator decides for a seed.
func inputsHash(seed int64) string {
	e := &env{scale: 1}
	return specsHash([]any{
		newConfigSweep(seed, e).specs,
		newStoreStream(seed, e).all(),
		newStoreWarm(seed, e).req,
		newServeTier(seed, e).reqs,
	})
}

func TestGeneratorDeterminism(t *testing.T) {
	if a, b := inputsHash(1), inputsHash(1); a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	seen := map[string]int64{}
	for seed := int64(1); seed <= 10; seed++ {
		h := inputsHash(seed)
		if prev, dup := seen[h]; dup {
			t.Errorf("seeds %d and %d generate identical inputs", prev, seed)
		}
		seen[h] = seed
	}
}

func TestGeneratedPointsResolve(t *testing.T) {
	// Every point of the full product must resolve and pass Config.Check.
	n := 0
	for _, ml := range axisMemLatency {
		for _, w := range axisWidth {
			for _, pr := range axisPhysRegs {
				for _, bp := range axisPredictor {
					for _, pf := range axisPrefetcher {
						p := point{ml, w, pr, bp, pf}
						job, err := p.spec("sha", p.String()).Resolve()
						if err != nil {
							t.Fatalf("%s: %v", p, err)
						}
						if err := job.Config.Check(); err != nil {
							t.Fatalf("%s: %v", p, err)
						}
						n++
					}
				}
			}
		}
	}
	// Balanced draws: each axis level appears floor or ceil of n/levels times.
	pts := points(rand.New(rand.NewSource(3)), 24)
	lat := map[int]int{}
	distinct := map[point]bool{}
	for _, p := range pts {
		lat[p.MemLatency]++
		distinct[p] = true
	}
	if len(distinct) != 24 {
		t.Errorf("%d distinct points of 24", len(distinct))
	}
	for _, ml := range axisMemLatency {
		if lat[ml] != 4 {
			t.Errorf("mem latency %d drawn %d times, want 4", ml, lat[ml])
		}
	}
	_ = n
}

func TestServeRequestsShape(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		testServeRequestsShape(t, seed)
	}
}

func testServeRequestsShape(t *testing.T, seed int64) {
	reqs := serveRequests(rand.New(rand.NewSource(seed)), serveTierBenches, 3, 8, 4)
	if len(reqs) != 32 {
		t.Fatalf("%d requests, want 32", len(reqs))
	}
	repeats := 0
	first := map[string]int{}
	for i, rq := range reqs {
		if len(rq.Sweep.Jobs) != 4 {
			t.Errorf("request %d has %d arms", i, len(rq.Sweep.Jobs))
		}
		if rq.RepeatOf >= 0 {
			repeats++
			if rq.RepeatOf >= i || reqs[rq.RepeatOf].RepeatOf >= 0 {
				t.Errorf("request %d repeats %d, which is not an earlier fresh request", i, rq.RepeatOf)
			}
			if specsHash(rq.Sweep) != specsHash(reqs[rq.RepeatOf].Sweep) {
				t.Errorf("request %d is not an exact repeat of %d", i, rq.RepeatOf)
			}
			// A repeat across the half-way barrier (where the third worker
			// joins) may find its key moved to an empty memo.
			if half := len(reqs) / 2; (i < half) != (rq.RepeatOf < half) {
				t.Errorf("request %d repeats %d across the half-way barrier", i, rq.RepeatOf)
			}
			continue
		}
		b := rq.Sweep.Jobs[0].Bench
		if _, ok := first[b]; !ok {
			first[b] = i
		}
		if got := requestID([]byte(`{"arm":"`+rq.Sweep.Jobs[0].Arm+`"}`), "worker"); got != rq.Sweep.Name {
			t.Errorf("arm label %q does not carry request id %q (got %q)", rq.Sweep.Jobs[0].Arm, rq.Sweep.Name, got)
		}
	}
	if repeats != 8 {
		t.Errorf("%d repeats, want 8", repeats)
	}
	for b, i := range first {
		if i >= len(serveTierBenches) {
			t.Errorf("%s first touched at request %d, after the first-touch block", b, i)
		}
	}
	if got := requestID([]byte(`{"name":"r17","jobs":[]}`), "coord"); got != "r17" {
		t.Errorf("coordinator request id = %q", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecWithinLimits(t *testing.T) {
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEndSpecs {
		check("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayerSpecs {
		check("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v out of contract", m)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %q is not module.name", m.Name)
		}
	}
	for name := range exactRepeat {
		if !seen[name] {
			t.Errorf("exactRepeat names unknown metric %q", name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json at the repository root
// and the tables in spec.go from drifting apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal([]any{workloadSpecs, endToEndSpecs, perLayerSpecs})
	got, _ := json.Marshal([]any{doc.Workloads, doc.EndToEnd, doc.PerLayer})
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go:\n got %s\nwant %s", got, want)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 {
		t.Errorf("command = %v", doc.Command)
	}
}

// TestCorruptedExpectationFails is the correctness gate's own test: the
// same outcome passes against the true emulator reference and fails the
// run against a corrupted one.
func TestCorruptedExpectationFails(t *testing.T) {
	specs := []serve.JobSpec{{Arm: "sha@default", Bench: "sha"}, {Arm: "sha@base", Bench: "sha", Baseline: true}}
	refs, err := references(specs)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := resolveAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sim.New(2).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var ok checker
	if good := ok.checkOutcomes(refs, jobs, outs, nil); good != 2 || ok.failed != 0 || ok.attempted != 2 {
		t.Fatalf("true references: %d good, %+v", good, ok)
	}
	key := jobs[0].Key().TraceKey()
	bad := refs[key]
	bad.Digest ^= 1
	refs[key] = bad
	var c checker
	if good := c.checkOutcomes(refs, jobs, outs, nil); good != 1 || c.failed != 1 || len(c.failures) != 1 {
		t.Fatalf("corrupted digest: %d good, %+v", good, c)
	}
	bad.Digest ^= 1
	bad.Retired++
	refs[key] = bad
	c = checker{}
	if c.checkOutcomes(refs, jobs, outs, nil); c.failed != 1 {
		t.Fatalf("corrupted retired count: %+v", c)
	}
	// Byte identity: one flipped byte is a difference at that index.
	enc, err := encodeAll(outs)
	if err != nil {
		t.Fatal(err)
	}
	other := [][]byte{enc[0], append([]byte(nil), enc[1]...)}
	if sameBytes(enc, other) != -1 {
		t.Error("identical encodings reported different")
	}
	other[1][len(other[1])/2] ^= 0x20
	if sameBytes(enc, other) != 1 {
		t.Error("flipped byte not detected")
	}
}

// TestCorruptedGoldenFailsFigures runs the figures workload (its cheap
// prefix) against a copy of the golden fixtures with one byte changed.
func TestCorruptedGoldenFailsFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timing simulations")
	}
	repo := t.TempDir()
	dst := filepath.Join(repo, "testdata", "golden")
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}
	e := &env{ctx: context.Background(), cpus: 2, scale: 8, tmp: t.TempDir(), repo: repo}
	w := newFigures(e)
	for _, id := range w.ids {
		data, err := os.ReadFile(filepath.Join("..", "testdata", "golden", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if id == "fig5" {
			data = bytes.Replace(data, []byte("coverage"), []byte("coveragE"), 1)
		}
		if err := os.WriteFile(filepath.Join(dst, id+".json"), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.round(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.Arms != 0 {
		t.Errorf("corrupted fig5 fixture: %d failed of %d, %d arms counted; want exactly 1 failed and no arms", r.failed, r.attempted, r.Arms)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "arms_per_s", Better: "higher", Bound: 0.08}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, tight(100), tight(101), verdictOK},
		{"slower within bound", lower, tight(100), tight(109), verdictOK},
		{"slower beyond bound", lower, tight(100), tight(112), verdictRegression},
		{"faster", lower, tight(100), tight(50), verdictOK},
		{"throughput drop beyond bound", higher, tight(100), tight(90), verdictRegression},
		{"throughput drop within bound", higher, tight(100), tight(93), verdictOK},
		{"throughput gain", higher, tight(100), tight(130), verdictOK},
		{"spread wider than bound", lower, wide(100), wide(105), verdictUnresolved},
		{"wide spread but every run better", lower, wide(100), wide(40), verdictOK},
		{"wide spread, much worse", lower, wide(100), wide(200), verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictRegression},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64, failed int) string {
		f := resultFile{Schema: resultSchema, CPUs: 2, Seed: 1, Seconds: 10, Scale: 1}
		for set := 0; set < 3; set++ {
			f.Runs = append(f.Runs, runRecord{Workload: "config_sweep", Set: set, result: result{
				Correct: failed == 0, Attempted: 48, Failed: failed,
				Metrics: map[string]metricValue{
					"setup_s":    {0.5, "s"},
					"arms_per_s": {rate + float64(set)*0.01, "arms/s"},
				},
			}})
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 16, 0)
	var out bytes.Buffer
	if code := runCompare(&out, base, write("same.json", 15.9, 0)); code != 0 || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("equal files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, write("slow.json", 9, 0)); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("44%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, write("failing.json", 16, 1)); code != 1 || !strings.Contains(out.String(), "fail_share") {
		t.Errorf("new failures: exit %d\n%s", code, out.String())
	}
	if code := runCompare(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestCheckerCounts(t *testing.T) {
	var c checker
	c.op(3, true, "fine")
	c.op(2, false, "broken %d", 7)
	if c.attempted != 5 || c.failed != 2 || len(c.failures) != 1 || c.failures[0] != "broken 7" {
		t.Errorf("%+v", c)
	}
	if peakRSSBytes() <= 0 {
		t.Error("VmHWM not readable")
	}
}

// TestSmokeEveryWorkload builds the benchmark and runs every workload at a
// tiny scale through the same path a full run takes: a parent process, one
// child per workload, the JSON result on the child's last line, and a
// traced child for the cheapest workload.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(dir, "results.json")
	// A port block of its own, so the smoke can run beside a real benchmark.
	cmd := exec.Command(bin, "-scale", "8", "-seconds", "0.1", "-cpus", "2", "-port-base", "39480",
		"-repo", repo, "-out", results, "-trace-out", filepath.Join(dir, "spans.json"))
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, out)
	}
	f, err := loadResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workloadSpecs) {
		t.Fatalf("%d runs for %d workloads\n%s", len(f.Runs), len(workloadSpecs), out)
	}
	for _, r := range f.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", r.Workload, r.Correct, r.Failed, r.Attempted)
		}
		for _, m := range endToEndSpecs {
			if v, ok := r.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v)", r.Workload, m.Name, v, ok)
			}
			if !strings.Contains(string(out), m.Name) {
				t.Errorf("table does not print %s", m.Name)
			}
		}
	}

	// One traced child, directly: every per-layer metric, and the span file.
	spans := filepath.Join(dir, "warm-spans.json")
	cmd = exec.Command(bin, "-workload", "store_warm", "-trace", "1", "-scale", "8", "-seconds", "0.1", "-cpus", "2", "-repo", repo, "-trace-out", spans)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("traced child: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("traced child result: %v", err)
	}
	for _, m := range perLayerSpecs {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("traced run does not report %s", m.Name)
		}
	}
	if res.Metrics["sim.store_hits"].Value == 0 || res.Metrics["sim.pipeline_sims"].Value != 0 {
		t.Errorf("store_warm traced: store_hits %v, pipeline_sims %v", res.Metrics["sim.store_hits"], res.Metrics["sim.pipeline_sims"])
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}

	// A child that cannot run exits non-zero and prints no result; the
	// parent passes the failure on.
	cmd = exec.Command(bin, "-workload", "no_such_workload", "-repo", repo)
	if stdout, err := cmd.Output(); err == nil || len(stdout) != 0 {
		t.Errorf("unknown workload: err=%v stdout=%q", err, stdout)
	}
	cmd = exec.Command(bin, "-workloads", "no_such_workload", "-repo", repo)
	if err := cmd.Run(); err == nil {
		t.Error("parent accepted an unknown workload")
	}
	// Nothing may be left behind in the scratch root.
	left, _ := filepath.Glob(filepath.Join(dir, "mgbench-*"))
	for _, p := range left {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			t.Errorf("scratch directory left behind: %s", p)
		}
	}
}
