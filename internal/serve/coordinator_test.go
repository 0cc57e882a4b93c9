package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minigraph/internal/sim"
	"minigraph/internal/workload"
)

// TestRendezvousRanking pins the sharding function: deterministic, a full
// permutation, and minimally disruptive — removing one worker reroutes
// only the keys that lived on it.
func TestRendezvousRanking(t *testing.T) {
	urls := []string{"http://w1", "http://w2", "http://w3"}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("trace-key-%d", i))
	}

	spread := make(map[int]int)
	for _, k := range keys {
		a := rankByRendezvous(urls, k)
		b := rankByRendezvous(urls, k)
		if len(a) != len(urls) {
			t.Fatalf("rank %v is not a permutation", a)
		}
		seen := map[int]bool{}
		for _, i := range a {
			seen[i] = true
		}
		if len(seen) != len(urls) {
			t.Fatalf("rank %v repeats workers", a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("ranking not deterministic: %v vs %v", a, b)
			}
		}
		spread[a[0]]++
	}
	// fnv spreads 64 keys across 3 workers; no worker should be starved.
	for i := range urls {
		if spread[i] == 0 {
			t.Errorf("worker %d owns no keys: %v", i, spread)
		}
	}

	// Drop w2: keys homed on w1/w3 must keep their home (their relative
	// scores are unchanged); only w2's keys move.
	sub := []string{urls[0], urls[2]}
	for _, k := range keys {
		full := rankByRendezvous(urls, k)
		if full[0] == 1 {
			continue // was homed on the removed worker
		}
		reduced := rankByRendezvous(sub, k)
		wantHome := 0
		if full[0] == 2 {
			wantHome = 1
		}
		if reduced[0] != wantHome {
			t.Fatalf("key rehomed although its worker survived: full %v, reduced %v", full, reduced)
		}
	}
}

// trackingWorker fronts a worker Server, recording which trace identities
// its /v1/outcome endpoint served and optionally going dark (aborting
// every connection) after a fixed number of outcome calls — a
// deterministic mid-sweep kill. gate() arms a one-shot barrier instead:
// the first outcome call from the holdAt-th on that satisfies holdIf parks
// (closing held) until release closes, giving tests a deterministic
// "mid-sweep" moment to mutate membership in.
type trackingWorker struct {
	t         *testing.T
	srv       *Server
	killAfter int64 // 0 = immortal
	holdAt    int64 // 0 = never parks
	// holdIf sees the calls per trace identity so far, the arriving one
	// included; nil parks the holdAt-th call itself.
	holdIf  func(traces map[string]int) bool
	held    chan struct{}
	release chan struct{}
	served  atomic.Int64

	mu     sync.Mutex
	parked bool           // the barrier is one-shot
	traces map[string]int // trace-key encoding -> outcome calls
}

func newTrackingWorker(t *testing.T, killAfter int64) (*trackingWorker, *httptest.Server) {
	t.Helper()
	srv := mustNew(t, Options{Engine: sim.New(2)})
	w := &trackingWorker{t: t, srv: srv, killAfter: killAfter, traces: make(map[string]int)}
	ts := httptest.NewServer(w)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return w, ts
}

// gate arms the mid-sweep barrier: the parking outcome call signals held
// and waits until release is closed.
func (w *trackingWorker) gate(holdAt int64, holdIf func(traces map[string]int) bool) {
	w.holdAt, w.holdIf = holdAt, holdIf
	w.held = make(chan struct{})
	w.release = make(chan struct{})
}

func (w *trackingWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/outcome" {
		n := w.served.Add(1)
		if w.killAfter > 0 && n > w.killAfter {
			panic(http.ErrAbortHandler) // killed: every further call dies
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.t.Error(err)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		w.mu.Lock()
		var js JobSpec
		if json.Unmarshal(body, &js) == nil {
			if job, err := js.Resolve(); err == nil {
				if tk, err := sim.EncodeTraceKey(job.Key().TraceKey()); err == nil {
					w.traces[string(tk)]++
				}
			}
		}
		park := w.holdAt > 0 && !w.parked && n >= w.holdAt && (w.holdIf == nil || w.holdIf(w.traces))
		w.parked = w.parked || park
		w.mu.Unlock()
		if park {
			close(w.held)
			<-w.release
		}
	}
	w.srv.ServeHTTP(rw, r)
}

func (w *trackingWorker) traceSet() map[string]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	set := make(map[string]bool, len(w.traces))
	for k := range w.traces {
		set[k] = true
	}
	return set
}

// benchSubsetSweep32 is the acceptance sweep: 32 arms (8 machine/policy
// variants × the 4-bench subset), record-bounded so the test stays quick.
func benchSubsetSweep32() SweepRequest {
	return subsetSweep("equiv32", "32-arm benchSubset equivalence", []JobSpec{
		{Baseline: true, Machine: "baseline"},
		{Baseline: true, Machine: "baseline", MemLatency: 300},
		{},
		{MemLatency: 300},
		{Machine: "minigraph-int"},
		{Collapse: true},
		{MaxSize: 3},
		{Entries: 128},
	})
}

// distinctBinarySweep32 has benchSubsetSweep32's shape — per bench two
// arms over the baseline binary, three over the default recipe and three
// of one arm each — but its single-arm recipes rewrite every benchmark into
// a binary of its own, where minigraph-int, MaxSize 3 and 128 entries
// select the default's mini-graphs on some benchmarks. Its 20 trace
// identities are 20 binaries (the caller checks), so a tier that captures
// once per binary captures once per identity.
func distinctBinarySweep32() SweepRequest {
	return subsetSweep("distinct32", "32-arm benchSubset sweep over 20 binaries", []JobSpec{
		{Baseline: true, Machine: "baseline"},
		{Baseline: true, Machine: "baseline", MemLatency: 300},
		{},
		{MemLatency: 300},
		{Compress: true},
		{Collapse: true},
		{MaxSize: 2},
		{MaxSize: 2, Compress: true},
	})
}

// subsetSweep crosses variants with the 4-bench subset, record-bounded.
func subsetSweep(name, title string, variants []JobSpec) SweepRequest {
	req := SweepRequest{Name: name, Title: title}
	for _, b := range workload.BenchSubset() {
		for i, spec := range variants {
			spec.Bench = b
			spec.MaxRecords = 3000
			spec.Arm = fmt.Sprintf("%s/v%d", b, i)
			req.Jobs = append(req.Jobs, spec)
		}
	}
	return req
}

func newCoordinator(t *testing.T, workerURLs ...string) *Client {
	t.Helper()
	srv := mustNew(t, Options{Engine: sim.New(2), Workers: workerURLs})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return NewClient(ts.URL)
}

// TestCoordinatorEquivalence is the tentpole acceptance test: the same
// 32-arm benchSubset sweep run (a) in one process, (b) sharded across two
// workers, and (c) with one worker killed mid-sweep yields byte-identical
// Report JSON in all three — and in (b) the shards respect trace-key
// affinity (no trace identity is computed on both workers).
func TestCoordinatorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine sweep; skipped in -short")
	}
	ctx := context.Background()
	req := benchSubsetSweep32()
	if len(req.Jobs) != 32 {
		t.Fatalf("sweep has %d arms, want 32", len(req.Jobs))
	}

	// (a) single process (default sweep bounds: the helper server caps at
	// 16 arms, this sweep has 32).
	srv := mustNew(t, Options{Engine: sim.New(2)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	single := NewClient(ts.URL)
	want, err := single.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// (b) coordinator over two live workers.
	w1, ts1 := newTrackingWorker(t, 0)
	w2, ts2 := newTrackingWorker(t, 0)
	coord := newCoordinator(t, ts1.URL, ts2.URL)
	got, err := coord.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded sweep differs from single-process:\nsharded:\n%s\nsingle:\n%s", got, want)
	}
	set1, set2 := w1.traceSet(), w2.traceSet()
	if len(set1) == 0 || len(set2) == 0 {
		t.Errorf("degenerate sharding: worker trace sets %d/%d", len(set1), len(set2))
	}
	for k := range set1 {
		if set2[k] {
			t.Errorf("trace identity served by both workers — affinity broken")
			break
		}
	}

	// Coordinator-routed /v1/simulate matches the single-process result.
	jr, err := coord.Simulate(ctx, req.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	jrSingle, err := single.Simulate(ctx, req.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if jr.Result == nil || jr.Result.Cycles != jrSingle.Result.Cycles || jr.IPC != jrSingle.IPC {
		t.Errorf("coordinator simulate diverged: %+v vs %+v", jr, jrSingle)
	}

	// An async job through the coordinator produces the same bytes.
	st, err := coord.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := coord.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone {
		t.Fatalf("async job %+v", fin)
	}
	rep, err := coord.JobReportJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep, want) {
		t.Fatalf("async coordinator report differs from single-process:\n%s", rep)
	}

	// (c) one worker dies mid-sweep: its arms re-route and the merged
	// report is still byte-identical.
	k1, kts1 := newTrackingWorker(t, 0)
	k2, kts2 := newTrackingWorker(t, 4) // dies after 4 outcome calls
	killCoord := newCoordinator(t, kts1.URL, kts2.URL)
	got, err = killCoord.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kill-mid-sweep report differs from single-process:\nsharded:\n%s", got)
	}
	if k2.served.Load() <= 4 {
		t.Logf("note: killed worker saw only %d calls", k2.served.Load())
	}
	if k1.served.Load() < 32-4 {
		t.Errorf("surviving worker served %d outcome calls; re-routing did not absorb the dead worker's arms", k1.served.Load())
	}

	// (d) elastic membership: the tier starts with one registered worker, a
	// second registers mid-sweep, the first's heartbeat TTL lapses
	// mid-sweep, and every re-routed arm fetches its captured trace blob
	// from the previous owner — byte-identical report, zero re-captures.
	// An engine captures once per binary, not per trace identity, so this
	// sweep's identities must be distinct binaries for "one capture per
	// identity" to mean "no re-routed arm re-captured": a single-process
	// reference run proves they are.
	dreq := distinctBinarySweep32()
	refEng := sim.New(2)
	ref := mustNew(t, Options{Engine: refEng})
	rts := httptest.NewServer(ref)
	t.Cleanup(func() {
		rts.Close()
		ref.Close()
	})
	dwant, err := NewClient(rts.URL).SweepJSON(ctx, dreq)
	if err != nil {
		t.Fatal(err)
	}
	arms := make(map[string]int) // trace identity -> arms replaying it
	for _, js := range dreq.Jobs {
		job, err := js.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := sim.EncodeTraceKey(job.Key().TraceKey())
		if err != nil {
			t.Fatal(err)
		}
		arms[string(tk)]++
	}
	if got := refEng.Stats().TraceCaptures; got != int64(len(arms)) {
		t.Fatalf("the elastic sweep's %d trace identities are %d binaries; each must be its own", len(arms), got)
	}

	// Arms dispatch in scheduler order and rendezvous placement hashes the
	// workers' random ports, so a moved identity has to be arranged, not
	// hoped for. The joined worker is one that becomes home to at least
	// three identities several arms share, and the join waits until the
	// first worker is about to hold one of them with a sibling arm still to
	// come: that sibling then routes to the joined worker, which must fetch
	// the capture. Three suffice — the four calls before the gate opens can
	// use up every arm of at most two.
	e1, ets1 := newTrackingWorker(t, 0)
	var (
		e2     *trackingWorker
		ets2   *httptest.Server
		moving []string
	)
	for tries := 0; len(moving) < 3; tries++ {
		if tries == 50 {
			t.Fatal("no listener port in 50 makes the joined worker home to 3 shared identities")
		}
		e2, ets2 = newTrackingWorker(t, 0)
		moving = moving[:0]
		for tk, n := range arms {
			if n > 1 && rankByRendezvous([]string{ets1.URL, ets2.URL}, []byte(tk))[0] == 1 {
				moving = append(moving, tk)
			}
		}
	}
	e1.gate(5, func(traces map[string]int) bool { // the join happens here
		for _, tk := range moving {
			if n := traces[tk]; n > 0 && n < arms[tk] {
				return true
			}
		}
		return false
	})
	e2.gate(1, nil) // park w2's first arm: the expiry happens here

	// FanoutConcurrency 1 serializes arms, so membership mutations at the
	// gates land between arms, never during a concurrent capture.
	csrv := mustNew(t, Options{
		Engine:            sim.New(2),
		Coordinator:       true,
		MemberTTL:         time.Minute,
		FanoutConcurrency: 1,
	})
	cts := httptest.NewServer(csrv)
	t.Cleanup(func() {
		cts.Close()
		csrv.Close()
	})
	cl := NewClient(cts.URL)
	if ttl, err := cl.RegisterWorker(ctx, ets1.URL); err != nil || ttl <= 0 {
		t.Fatalf("register w1: ttl %s, %v", ttl, err)
	}

	type sweepRes struct {
		data []byte
		err  error
	}
	doneCh := make(chan sweepRes, 1)
	go func() {
		data, err := cl.SweepJSON(ctx, dreq)
		doneCh <- sweepRes{data, err}
	}()

	waitOr := func(c <-chan struct{}, what string) {
		select {
		case <-c:
		case res := <-doneCh:
			t.Fatalf("sweep finished (%v) before %s", res.err, what)
		case <-time.After(2 * time.Minute):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	waitOr(e1.held, "the first worker to reach its gate")
	if _, err := cl.RegisterWorker(ctx, ets2.URL); err != nil {
		t.Fatalf("register w2 mid-sweep: %v", err)
	}
	close(e1.release)

	waitOr(e2.held, "the joined worker's first arm")
	csrv.coord.members.expireForTest(ets1.URL) // w1's heartbeat TTL lapses
	close(e2.release)

	res := <-doneCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !bytes.Equal(res.data, dwant) {
		t.Fatalf("elastic-membership sweep differs from single-process:\n%s", res.data)
	}
	if n := e2.served.Load(); n == 0 {
		t.Fatal("joined worker served nothing; membership change did not re-route")
	}
	st1, st2 := e1.srv.eng.Stats(), e2.srv.eng.Stats()
	if got := st1.TraceCaptures + st2.TraceCaptures; got != int64(len(arms)) {
		t.Errorf("tier captured %d traces for %d identities — re-routed arms re-captured instead of fetching blobs (w1 %d, w2 %d)",
			got, len(arms), st1.TraceCaptures, st2.TraceCaptures)
	}
	if st2.TracePeerHits == 0 {
		t.Error("joined worker never fetched a peer blob")
	}
	if st1.TracePeerRejects+st2.TracePeerRejects != 0 {
		t.Errorf("peer blob transfers were rejected: w1 %d, w2 %d", st1.TracePeerRejects, st2.TracePeerRejects)
	}

	// The member table reflects the churn: w1 expired (but retained), w2
	// live — through the public endpoint.
	var members []MemberStatus
	mresp, mbody := getBody(t, cts.URL+"/v1/workers")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/workers: %d: %s", mresp.StatusCode, mbody)
	}
	if err := json.Unmarshal(mbody, &members); err != nil {
		t.Fatal(err)
	}
	byURL := make(map[string]MemberStatus, len(members))
	for _, m := range members {
		byURL[m.URL] = m
	}
	if m, ok := byURL[ets1.URL]; !ok || m.Live {
		t.Errorf("expired worker in member table: %+v (present %v)", m, ok)
	}
	if m, ok := byURL[ets2.URL]; !ok || !m.Live || m.Heartbeats == 0 {
		t.Errorf("joined worker in member table: %+v (present %v)", m, ok)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestCoordinatorAllWorkersDown: with every worker unreachable the sweep
// fails with an error naming the workers — it must not hang or fall back
// to silently dropping arms.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here any more
	coord := newCoordinator(t, dead.URL)
	_, err := coord.Sweep(context.Background(), SweepRequest{Jobs: []JobSpec{fastSpec("x", true)}})
	if err == nil {
		t.Fatal("sweep over dead workers succeeded")
	}
	var se *StatusError
	if errors.As(err, &se) && se.Status != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", se.Status)
	}
}

// TestCoordinatorHungWorkerTimesOut: a worker that accepts the connection
// and never answers must not wedge the sweep — the per-call timeout marks
// it failed and the arm re-routes to a live worker.
func TestCoordinatorHungWorkerTimesOut(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold every request open until the test ends
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(func() {
		close(release)
		hung.Close()
	})
	_, live := newTrackingWorker(t, 0)

	srv := mustNew(t, Options{
		Engine:            sim.New(2),
		Workers:           []string{hung.URL, live.URL},
		WorkerCallTimeout: 300 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	req := SweepRequest{Name: "hang", Jobs: []JobSpec{
		fastSpec("a", true), fastSpec("b", false),
	}}
	start := time.Now()
	rep, err := NewClient(ts.URL).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("sweep failed despite a live worker: %v", err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("sweep took %s; hung worker was not timed out", d)
	}
}

// TestCoordinatorComputeErrorDoesNotReroute: an HTTP error status is an
// answer — the worker is alive and the failure is the arm's own, so the
// arm fails once instead of re-running its capture on every worker.
func TestCoordinatorComputeErrorDoesNotReroute(t *testing.T) {
	var calls atomic.Int64
	broken := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/outcome" {
				calls.Add(1)
				httpError(w, http.StatusInternalServerError, fmt.Errorf("boom"))
				return
			}
			http.NotFound(w, r)
		}))
	}
	b1, b2 := broken(), broken()
	t.Cleanup(b1.Close)
	t.Cleanup(b2.Close)

	coord := newCoordinator(t, b1.URL, b2.URL)
	_, err := coord.Sweep(context.Background(), SweepRequest{Jobs: []JobSpec{fastSpec("x", true)}})
	if err == nil {
		t.Fatal("sweep succeeded against broken workers")
	}
	var se *StatusError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "boom") {
		t.Fatalf("worker error not propagated: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("arm tried %d workers after a compute error, want exactly 1 (no re-route)", n)
	}
}
