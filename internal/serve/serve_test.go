package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"minigraph/internal/sim"
	"minigraph/internal/store"
)

// mustNew builds a server out of options every test expects to be valid.
func mustNew(t *testing.T, o Options) *Server {
	t.Helper()
	srv, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestServer(t *testing.T, st *store.Store) (*httptest.Server, *sim.Engine) {
	t.Helper()
	eng := sim.New(2)
	if st != nil {
		eng.WithStore(st)
	}
	srv := mustNew(t, Options{Engine: eng, MaxSweepJobs: 16})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, eng
}

// fastSpec is a bounded job so handler tests stay quick.
func fastSpec(arm string, baseline bool) JobSpec {
	js := JobSpec{Arm: arm, Bench: "sha", Baseline: baseline, MaxRecords: 3000}
	if baseline {
		js.Machine = "baseline"
	}
	return js
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "ok" {
		t.Fatalf("body %v (%v)", body, err)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/simulate", fastSpec("base", true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var jr JobResult
	if err := json.Unmarshal(out, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Result == nil || jr.Result.Cycles == 0 || jr.IPC <= 0 {
		t.Fatalf("implausible result: %+v", jr)
	}
	if jr.Templates != 0 {
		t.Errorf("baseline job reported %d templates", jr.Templates)
	}

	// An extracted job reports its extraction.
	resp, out = postJSON(t, ts.URL+"/v1/simulate", fastSpec("mg", false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Templates == 0 || jr.Coverage <= 0 {
		t.Errorf("extracted job lost its selection: %+v", jr)
	}
}

func TestSimulateValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	cases := []JobSpec{
		{},                                        // no bench
		{Bench: "no-such-bench"},                  // unknown bench
		{Bench: "sha", Input: "validation"},       // bad input
		{Bench: "sha", Machine: "cray"},           // bad machine
		{Bench: "sha", Machine: "baseline"},       // baseline machine, extracted job
		{Bench: "sha", MaxSize: 1},                // undersized mini-graphs
		{Bench: "sha", Entries: -4},               // negative MGT
		{Bench: "sha", SchedCycles: 3},            // bad scheduler
		{Bench: "sha", Baseline: true, Width: -1}, // bad width
		{Bench: "sha", MemLatency: -5},            // negative memory latency
	}
	for i, js := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/simulate", js)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, body %s", i, resp.StatusCode, out)
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
			t.Errorf("case %d: error body %s", i, out)
		}
	}
	// Unknown fields are rejected too (protects clients from typos).
	resp, _ := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"bench":"sha","baselin":true}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("typoed field accepted: %d", resp.StatusCode)
	}
}

// TestFrontendOverrideValidation pins the front-end override contract:
// unknown predictor/prefetcher kinds come back as structured JSON 400s
// that list the valid kinds, and orphaned or impossible sizing is caught
// at resolve time.
func TestFrontendOverrideValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	cases := []struct {
		js   JobSpec
		want string // substring the error must carry
	}{
		{JobSpec{Bench: "sha", Predictor: "perceptron"}, "hybrid tage"},
		{JobSpec{Bench: "sha", Prefetcher: "markov"}, "none delta"},
		{JobSpec{Bench: "sha", PrefetchDegree: 4}, "require prefetcher"},
		{JobSpec{Bench: "sha", Prefetcher: "delta", PrefetchDegree: 99}, "degree"},
		{JobSpec{Bench: "sha", Prefetcher: "delta", PrefetchEntries: 100}, "power of two"},
	}
	for i, c := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/simulate", c.js)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, body %s", i, resp.StatusCode, out)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || !strings.Contains(e["error"], c.want) {
			t.Errorf("case %d: error body %s lacks %q", i, out, c.want)
		}
	}

	// Valid overrides resolve to the matching machine configs and share the
	// cache key with the spelled-out equivalents.
	job, err := (JobSpec{Bench: "sha", Baseline: true, Predictor: "tage", Prefetcher: "delta", PrefetchDegree: 4}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.Config.BPred.Kind != "tage" || job.Config.Prefetcher.Kind != "delta" || job.Config.Prefetcher.Degree != 4 {
		t.Errorf("overrides not applied: %+v %+v", job.Config.BPred, job.Config.Prefetcher)
	}
	plain, err := (JobSpec{Bench: "sha", Baseline: true, Predictor: "hybrid", Prefetcher: "none"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def, err := (JobSpec{Bench: "sha", Baseline: true}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key() != def.Key() {
		t.Errorf("explicit default kinds changed the cache key:\n%+v\n%+v", plain.Key(), def.Key())
	}
}

// TestMemLatencyOverride pins the mem_latency machine override: it is the
// documented route to configurations whose memory latency chains exceed the
// event wheel's page size (see the uarch overflow regression tests).
func TestMemLatencyOverride(t *testing.T) {
	js := JobSpec{Bench: "sha", Baseline: true, MemLatency: 3000}
	job, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.Config.MemLatency != 3000 {
		t.Errorf("mem_latency override not applied: %d", job.Config.MemLatency)
	}
	if def, err := (JobSpec{Bench: "sha", Baseline: true}).Resolve(); err != nil || def.Config.MemLatency != 0 {
		t.Errorf("default jobs must leave MemLatency at the preset zero (got %d, %v)", def.Config.MemLatency, err)
	}
}

// TestWideWidthOverrideDoesNotPanic: any width Resolve accepts must produce
// a config Validate accepts — a Validate panic would fire inside an engine
// worker goroutine and kill the whole service.
func TestWideWidthOverrideDoesNotPanic(t *testing.T) {
	job, err := (JobSpec{Bench: "sha", Baseline: true, Width: 400}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	job.Config.Validate() // panics on failure
}

// TestSweepByteIdenticalToInProcess is the serving-layer acceptance test:
// the /v1/sweep response must be byte-identical to the Report produced by
// running the same jobs on an in-process engine.
func TestSweepByteIdenticalToInProcess(t *testing.T) {
	req := SweepRequest{
		Name:  "accept",
		Title: "acceptance sweep",
		Jobs: []JobSpec{
			fastSpec("sha/base", true),
			fastSpec("sha/mg", false),
			{Arm: "adpcm/base", Bench: "adpcm.enc", Baseline: true, Machine: "baseline", MaxRecords: 3000},
			{Arm: "adpcm/mg-int", Bench: "adpcm.enc", Machine: "minigraph-int", MaxRecords: 3000},
		},
	}

	// In-process reference.
	jobs := make([]sim.SimJob, len(req.Jobs))
	for i, js := range req.Jobs {
		job, err := js.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	ref := sim.New(2)
	outs, err := ref.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepReport(req, outs).JSON()
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServer(t, nil)
	resp, got := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	got = bytes.TrimSuffix(got, []byte("\n"))
	if !bytes.Equal(got, want) {
		t.Fatalf("served sweep differs from in-process report\nserved:\n%s\nin-process:\n%s", got, want)
	}
}

// TestSweepCoalescing posts the same sweep from many goroutines at once;
// the shared engine must execute each distinct job exactly once.
func TestSweepCoalescing(t *testing.T) {
	ts, eng := newTestServer(t, nil)
	req := SweepRequest{
		Name: "dup",
		Jobs: []JobSpec{
			fastSpec("base", true),
			fastSpec("mg", false),
			fastSpec("base-again", true), // duplicate arm inside one sweep
		},
	}
	const callers = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			bodies[c], _ = io.ReadAll(resp.Body)
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if !bytes.Equal(bodies[c], bodies[0]) {
			t.Fatalf("caller %d saw a different report", c)
		}
	}
	st := eng.Stats()
	if st.SimRuns != 2 { // base (deduped with base-again) + mg
		t.Errorf("%d sim runs for 2 distinct jobs across %d callers: %+v", st.SimRuns, callers, st)
	}
	if st.SimHits != int64(callers*3-2) {
		t.Errorf("coalescing hits: %+v", st)
	}
}

func TestSweepValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep: %d", resp.StatusCode)
	}
	big := SweepRequest{}
	for i := 0; i < 17; i++ { // MaxSweepJobs: 16
		big.Jobs = append(big.Jobs, fastSpec(fmt.Sprintf("a%d", i), true))
	}
	resp, out := postJSON(t, ts.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep: %d %s", resp.StatusCode, out)
	}
	bad := SweepRequest{Jobs: []JobSpec{fastSpec("ok", true), {Bench: "nope"}}}
	resp, out = postJSON(t, ts.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "jobs[1]") {
		t.Errorf("bad arm not located: %d %s", resp.StatusCode, out)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments/robust?benchmarks=sha")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep sim.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "robust" || len(rep.Rows) == 0 {
		t.Fatalf("report %+v", rep)
	}

	for path, want := range map[string]int{
		"/v1/experiments/no-such-figure":         http.StatusNotFound,
		"/v1/experiments/robust?benchmarks=typo": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestStatszReportsStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, st)
	if _, out := postJSON(t, ts.URL+"/v1/simulate", fastSpec("warm", true)); len(out) == 0 {
		t.Fatal("empty simulate response")
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.SimRuns != 1 || stats.PipelineSims != 1 {
		t.Errorf("engine stats %+v", stats)
	}
	// Three puts: the simulation outcome, and the two records of the
	// captured trace's segment — its single chunk and the manifest.
	if stats.Store == nil || stats.Store.Puts != 3 {
		t.Errorf("store stats %+v", stats.Store)
	}
	if stats.Workers != 2 || len(stats.Experiments) == 0 {
		t.Errorf("stats %+v", stats)
	}
}

// TestStatszScrubObject pins the /statsz "scrub" object to the four fields
// a scrub still reports — a trace is one segment, checked and deleted as a
// unit, so there are no orphan-chunk or invalidated-manifest counts — and
// runs the startup sequence mgserve -scrub does over a store holding one
// good entry and one damaged segment.
func TestStatszScrubObject(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, st)
	_, want := postJSON(t, ts.URL+"/v1/simulate", fastSpec("warm", true))
	segs, _ := filepath.Glob(filepath.Join(st.Dir(), "*", "*"+store.SegExt))
	if len(segs) != 1 {
		t.Fatalf("want one trace segment on disk, found %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}

	if st, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	rep := st.Scrub()
	srv := mustNew(t, Options{Engine: sim.New(2).WithStore(st), Scrub: &rep})
	ts2 := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts2.Close()
		srv.Close()
	})
	_, body := getBody(t, ts2.URL+"/statsz")
	var stats struct {
		Scrub map[string]int64 `json:"scrub"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	reclaimed := stats.Scrub["bytes_reclaimed"]
	delete(stats.Scrub, "bytes_reclaimed")
	if fmt.Sprint(stats.Scrub) != "map[corrupt:1 errors:0 scanned:2]" || reclaimed != int64(len(data)) {
		t.Errorf("scrub object %v with %d bytes reclaimed, want 2 scanned, 1 corrupt, %d bytes", stats.Scrub, reclaimed, len(data))
	}
	// The outcome entry survived the scrub, so the same job is a store hit.
	if _, got := postJSON(t, ts2.URL+"/v1/simulate", fastSpec("warm", true)); !bytes.Equal(got, want) {
		t.Errorf("response after the scrub differs:\n%s\n%s", got, want)
	}
}

// TestStatszTraceCounters: a configuration sweep over one binary captures
// its trace once, and a second sweep with fresh machine overrides replays
// it with zero new captures — all visible through /statsz, and the same on
// a resident server and on one bounded over a store. What differs is where
// the arms read the trace from, which the operator reads off the chunk
// counters: the bounded server faults spilled chunks in, the resident one
// none; the report bodies are byte-identical. No gang_* key is reported.
func TestStatszTraceCounters(t *testing.T) {
	sweep := func(lats ...int) SweepRequest {
		req := SweepRequest{Name: "latsweep"}
		for _, ml := range lats {
			req.Jobs = append(req.Jobs, JobSpec{
				Arm: fmt.Sprintf("mem%d", ml), Bench: "sha",
				MemLatency: ml, MaxRecords: 3000,
			})
		}
		return req
	}
	// run posts the two sweeps to one server, checks the capture-once
	// counters, and returns the report bodies and the final engine stats.
	run := func(t *testing.T, ts *httptest.Server) ([2][]byte, sim.Stats) {
		statsz := func() sim.Stats {
			resp, err := http.Get(ts.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			var raw struct{ Engine map[string]json.RawMessage }
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatal(err)
			}
			for k := range raw.Engine {
				if strings.HasPrefix(k, "gang") {
					t.Errorf("/statsz engine reports %q", k)
				}
			}
			return st.Engine
		}
		var bodies [2][]byte
		var resp *http.Response
		if resp, bodies[0] = postJSON(t, ts.URL+"/v1/sweep", sweep(120, 140, 160)); resp.StatusCode != http.StatusOK {
			t.Fatalf("first sweep status %d", resp.StatusCode)
		}
		if st := statsz(); st.TraceCaptures != 1 || st.TraceReplayHits != 2 {
			t.Fatalf("first sweep captures=%d replay hits=%d, want 1/2: %+v", st.TraceCaptures, st.TraceReplayHits, st)
		}
		if resp, bodies[1] = postJSON(t, ts.URL+"/v1/sweep", sweep(200, 240)); resp.StatusCode != http.StatusOK {
			t.Fatalf("second sweep status %d", resp.StatusCode)
		}
		st := statsz()
		if st.TraceCaptures != 1 || st.TraceReplayHits != 4 {
			t.Fatalf("second sweep captures=%d replay hits=%d, want 1 (no new capture)/4", st.TraceCaptures, st.TraceReplayHits)
		}
		if st.TraceBytes == 0 {
			t.Fatal("trace bytes counter not populated")
		}
		return bodies, st
	}

	resident, _ := newTestServer(t, nil)
	want, st := run(t, resident)
	if st.TraceChunkFaults != 0 {
		t.Fatalf("resident server faulted %d chunks", st.TraceChunkFaults)
	}

	cache, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, eng := newTestServer(t, cache)
	eng.WithTraceChunkRecords(256).WithTraceChunkWindow(2)
	got, st := run(t, bounded)
	// The operator-facing proof that the bounded server replayed spilled.
	if st.TraceChunkFaults == 0 {
		t.Fatalf("bounded server faulted no chunk: %+v", st)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("sweep %d: bounded server's report differs from the resident server's", i)
		}
	}
}

// TestSweepDuplicateArms: duplicate arm names within one sweep would
// produce ambiguous per-arm report rows, so they are rejected with a 400
// naming the offending arm — both explicit labels and the synthetic
// bench@machine defaults.
func TestSweepDuplicateArms(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Jobs: []JobSpec{
		fastSpec("twin", true),
		fastSpec("solo", false),
		fastSpec("twin", true),
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate arms accepted: %d %s", resp.StatusCode, out)
	}
	var e map[string]string
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("error body %s", out)
	}
	for _, want := range []string{`"twin"`, "jobs[2]", "jobs[0]"} {
		if !strings.Contains(e["error"], want) {
			t.Errorf("error %q does not name %s", e["error"], want)
		}
	}

	// Two unlabeled jobs over the same bench+machine collide on the
	// synthetic label too.
	resp, out = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Jobs: []JobSpec{
		{Bench: "sha", MaxRecords: 3000},
		{Bench: "sha", MaxRecords: 6000},
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "sha@minigraph") {
		t.Errorf("synthetic-label duplicate: %d %s", resp.StatusCode, out)
	}

	// Distinct labels over identical underlying jobs stay legal (they
	// coalesce in the engine; the rows are unambiguous).
	resp, out = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Jobs: []JobSpec{
		fastSpec("a", true), fastSpec("b", true),
	}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("renamed duplicates rejected: %d %s", resp.StatusCode, out)
	}
}

// TestErrorResponsesAlwaysJSON: every error path — including the mux's
// built-in 404/405 plain-text responses — must reach the client as
// Content-Type application/json with a structured {"error": ...} body.
func TestErrorResponsesAlwaysJSON(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	cases := []struct {
		method, path string
		body         string
		want         int
	}{
		{"GET", "/no/such/path", "", http.StatusNotFound},
		{"GET", "/v1/simulate", "", http.StatusMethodNotAllowed}, // handler is POST
		{"PUT", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/sweep", "{not json", http.StatusBadRequest},
		{"GET", "/v1/jobs/j-missing", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s %s: body %q is not a structured error", c.method, c.path, body)
		}
	}

	// Success paths are untouched by the rewriter.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// slowSweep is a sweep long enough to cancel mid-flight: full-run gzip
// arms with distinct memory latencies, serialized on a 1-worker engine.
func slowSweep(arms int) SweepRequest {
	req := SweepRequest{Name: "slow"}
	for i := 0; i < arms; i++ {
		req.Jobs = append(req.Jobs, JobSpec{
			Arm: fmt.Sprintf("gzip/mem%d", i), Bench: "gzip",
			Baseline: true, Machine: "baseline", MemLatency: 100 + 10*i,
		})
	}
	return req
}

// TestSweepClientDisconnect: when the client goes away mid-sweep, the
// request context must abort in-flight pipeline runs promptly, the engine
// must stop issuing the remaining arms, and the handler must return
// without writing any partial JSON body.
func TestSweepClientDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run sweep; skipped in -short")
	}
	eng := sim.New(1) // serialize arms so cancellation lands mid-sweep
	srv := mustNew(t, Options{Engine: eng})
	defer srv.Close()

	const arms = 16
	req := slowSweep(arms)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hr := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, hr)
	}()

	// Let the sweep get going (capture + first arms), then disconnect.
	time.Sleep(250 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("handler still running 15s after client disconnect")
	}
	if d := time.Since(canceledAt); d > 5*time.Second {
		t.Errorf("handler took %s to notice the disconnect", d)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("handler wrote %d bytes after disconnect: %.120q", rec.Body.Len(), rec.Body.String())
	}

	// The canceled arms were evicted from the engine's cache, so running
	// the identical sweep again re-executes exactly the arms that never
	// completed. Most of the sweep must still have been pending at cancel
	// time — the engine stopped issuing arms instead of finishing the
	// batch behind the dead connection.
	before := eng.Stats().SimRuns
	jobs := make([]sim.SimJob, len(req.Jobs))
	for i, js := range req.Jobs {
		if jobs[i], err = js.Resolve(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	rerun := eng.Stats().SimRuns - before
	if rerun < arms/2 {
		t.Errorf("only %d of %d arms were still pending at cancel; engine kept issuing work for a dead client", rerun, arms)
	}
}

// TestStatszRaceClean hammers /statsz while sweeps and async jobs run;
// the race detector (CI runs this package under -race) must stay quiet.
func TestStatszRaceClean(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := SweepRequest{Name: "race", Jobs: []JobSpec{
				fastSpec(fmt.Sprintf("c%d/base", c), true),
				fastSpec(fmt.Sprintf("c%d/mg", c), false),
			}}
			if resp, out := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusOK {
				t.Errorf("sweep: %d %s", resp.StatusCode, out)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, out := postJSON(t, ts.URL+"/v1/jobs", SweepRequest{Jobs: []JobSpec{fastSpec("job/base", true)}}); resp.StatusCode != http.StatusAccepted {
			t.Errorf("job submit: %d %s", resp.StatusCode, out)
		}
	}()
	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Mode != "single" || st.Workers != 2 {
			t.Fatalf("statsz %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
}
