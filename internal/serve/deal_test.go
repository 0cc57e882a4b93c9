package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minigraph/internal/sim"
	"minigraph/internal/uarch"
)

// traceKeyOf is the canonical trace-key encoding of a spec's arm.
func traceKeyOf(t *testing.T, js JobSpec) []byte {
	t.Helper()
	job, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := sim.EncodeTraceKey(job.Key().TraceKey())
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// resolveJobs resolves every spec into its engine job.
func resolveJobs(t *testing.T, specs []JobSpec) []sim.SimJob {
	t.Helper()
	jobs := make([]sim.SimJob, len(specs))
	for i, js := range specs {
		job, err := js.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	return jobs
}

// TestCoordinatorRoute pins the routing edges: a one-worker tier sends
// every slot home and nothing borrows; with the home marked down its
// slots move one place down the rendezvous ranking, and the member that
// becomes rank 0 is the live home, not a borrower.
func TestCoordinatorRoute(t *testing.T) {
	key := []byte("trace-key")
	urls := []string{"http://w1", "http://w2", "http://w3"}
	rank := rankByRendezvous(urls, key)
	newDown := func(down ...string) *downSet {
		d := &downSet{m: make(map[string]bool)}
		for _, u := range down {
			d.set(u)
		}
		return d
	}

	one, err := NewCoordinator(CoordinatorOptions{Workers: urls[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ {
		if target, borrow := one.route(key, slot, newDown()); target != urls[0] || borrow {
			t.Errorf("one worker, slot %d: routed to %q (borrow %v), want the home", slot, target, borrow)
		}
	}

	c, err := NewCoordinator(CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		down   []string
		slot   int
		want   string
		borrow bool
	}{
		{nil, 0, urls[rank[0]], false},
		{nil, 1, urls[rank[1]], true},
		{[]string{urls[rank[0]]}, 0, urls[rank[1]], false},
		{[]string{urls[rank[0]]}, 1, urls[rank[2]], true},
		{[]string{urls[rank[0]], urls[rank[1]]}, 1, urls[rank[2]], false},
		{urls, 0, "", false},
	}
	for _, tc := range cases {
		if target, borrow := c.route(key, tc.slot, newDown(tc.down...)); target != tc.want || borrow != tc.borrow {
			t.Errorf("down %v, slot %d: routed to %q (borrow %v), want %q (borrow %v)", tc.down, tc.slot, target, borrow, tc.want, tc.borrow)
		}
	}
}

// TestSeenKeysCapped: the seen-key set is a bounded hint. Far more
// insertions than its cap leave it at the cap, holding the newest keys.
func TestSeenKeysCapped(t *testing.T) {
	const n = 8
	s := newSeenKeys(n)
	for h := uint64(0); h < 1000; h++ {
		s.add(h)
		s.add(h) // a repeat is not a second insertion
	}
	if len(s.set) != n || len(s.fifo) != n {
		t.Fatalf("seen set holds %d keys (%d in order), want its cap %d", len(s.set), len(s.fifo), n)
	}
	for h := uint64(0); h < 1000; h++ {
		if want := h >= 1000-n; s.has(h) != want {
			t.Errorf("has(%d) = %v, want %v", h, !want, want)
		}
	}
}

// stubTier is two or more workers that answer /v1/outcome with a fixed
// outcome at once, recording each call's worker, arm and borrow header.
// hold, when set, runs in the handler before it answers.
type stubTier struct {
	urls []string
	hold func(worker int, arm string)

	mu    sync.Mutex
	calls []stubCall
}

type stubCall struct {
	worker int
	arm    string
	borrow bool
}

func newStubTier(t *testing.T, n int) *stubTier {
	t.Helper()
	answer, err := sim.EncodeOutcome(&sim.Outcome{Result: &uarch.Result{Cycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := &stubTier{}
	for w := 0; w < n; w++ {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			var js JobSpec
			if err := json.NewDecoder(r.Body).Decode(&js); err != nil {
				httpError(rw, http.StatusBadRequest, err)
				return
			}
			st.mu.Lock()
			st.calls = append(st.calls, stubCall{worker: w, arm: js.Arm, borrow: r.Header.Get(borrowHeader) != ""})
			hold := st.hold
			st.mu.Unlock()
			if hold != nil {
				hold(w, js.Arm)
			}
			_, _ = rw.Write(answer)
		}))
		t.Cleanup(ts.Close)
		st.urls = append(st.urls, ts.URL)
	}
	return st
}

func (st *stubTier) setHold(hold func(worker int, arm string)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hold = hold
}

// run sends specs through a coordinator over the tier and returns the
// calls it made.
func (st *stubTier) run(t *testing.T, c *Coordinator, specs []JobSpec) []stubCall {
	t.Helper()
	st.mu.Lock()
	st.calls = nil
	st.mu.Unlock()
	jobs := resolveJobs(t, specs)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, specs, jobs, nil); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]stubCall(nil), st.calls...)
}

// TestCoordinatorDealsFirstArmAlone drives the grouping against stub
// workers, so it runs under -short and the race detector. A sweep of four
// arms over one trace key plus one singleton:
//   - on a one-worker tier, every arm goes to the home and none borrows;
//   - on a two-worker tier that has not seen the key, the first arm runs
//     alone on the home and the other three wait for it, then go
//     alternately to the second worker (borrowing) and the home;
//   - once the key is seen, the same deal starts at once: the first arm is
//     held until a borrowed arm arrives, which only a concurrent start
//     allows.
func TestCoordinatorDealsFirstArmAlone(t *testing.T) {
	var specs []JobSpec
	for i, lat := range []int{80, 120, 200, 300} {
		specs = append(specs, JobSpec{Arm: fmt.Sprintf("a%d", i), Bench: "sha", MaxRecords: 3000, MemLatency: lat})
	}
	specs = append(specs, fastSpec("solo", true))
	key := traceKeyOf(t, specs[0])

	single := newStubTier(t, 1)
	c1, err := NewCoordinator(CoordinatorOptions{Workers: single.urls})
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range single.run(t, c1, specs) {
		if call.borrow {
			t.Errorf("one worker: arm %s borrowed", call.arm)
		}
	}

	tier := newStubTier(t, 2)
	home := rankByRendezvous(tier.urls, key)[0]
	c, err := NewCoordinator(CoordinatorOptions{Workers: tier.urls})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	firstDone := false
	tier.setHold(func(w int, arm string) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case arm == "a0":
			firstDone = true // the handler answers right after this
		case arm != "solo" && !firstDone:
			t.Errorf("first touch: arm %s started before the first arm returned", arm)
		}
	})
	wantPlace := map[string]stubCall{
		"a0":   {home, "a0", false},
		"a1":   {1 - home, "a1", true},
		"a2":   {home, "a2", false},
		"a3":   {1 - home, "a3", true},
		"solo": {rankByRendezvous(tier.urls, traceKeyOf(t, specs[4]))[0], "solo", false},
	}
	check := func(phase string, calls []stubCall) {
		if len(calls) != len(specs) {
			t.Fatalf("%s: %d calls for %d arms", phase, len(calls), len(specs))
		}
		for _, call := range calls {
			if call != wantPlace[call.arm] {
				t.Errorf("%s: arm %s went to worker %d (borrow %v), want %+v", phase, call.arm, call.worker, call.borrow, wantPlace[call.arm])
			}
		}
	}
	check("first touch", tier.run(t, c, specs))
	if !c.seen.has(keyHash(key)) {
		t.Fatal("the key is not seen after its arms completed")
	}

	borrowed := make(chan struct{})
	var once sync.Once
	tier.setHold(func(w int, arm string) {
		switch arm {
		case "a0":
			select {
			case <-borrowed:
			case <-time.After(5 * time.Second):
				t.Error("seen key: the first arm ran alone; no borrowed arm started beside it")
			}
		case "a1", "a3":
			once.Do(func() { close(borrowed) })
		}
	})
	check("seen", tier.run(t, c, specs))
}

// TestCoordinatorDealsOverTopTwo is the deal's property test on real
// workers: a fresh two-worker tier serves a first-touch sweep and then
// its repeat. The sweep keeps the identities homed on the first worker
// (distinct binaries, several with more than one arm), so the second
// worker only ever borrows. Afterwards:
//   - the tier captured each binary once, all on the home;
//   - every identity with two or more arms was served by both workers,
//     every other one by its home alone;
//   - the borrower fetched each borrowed trace once and holds none;
//   - both reports are byte-identical to single-process execution.
func TestCoordinatorDealsOverTopTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine sweep; skipped in -short")
	}
	ctx := context.Background()
	full := distinctBinarySweep32()
	home, hts := newTrackingWorker(t, 0)
	var (
		borrower *trackingWorker
		bts      *httptest.Server
		req      SweepRequest
		arms     map[string]int
		multi    int
	)
	for tries := 0; multi < 2; tries++ {
		if tries == 50 {
			t.Fatal("no listener port in 50 leaves the first worker home to 2 identities with several arms")
		}
		borrower, bts = newTrackingWorker(t, 0)
		req = SweepRequest{Name: "deal", Title: "dealt over the top two"}
		arms = make(map[string]int)
		multi = 0
		for _, js := range full.Jobs {
			tk := traceKeyOf(t, js)
			if rankByRendezvous([]string{hts.URL, bts.URL}, tk)[0] == 0 {
				req.Jobs = append(req.Jobs, js)
				if arms[string(tk)]++; arms[string(tk)] == 2 {
					multi++
				}
			}
		}
	}

	ref := sim.New(2)
	outs, err := ref.Run(ctx, resolveJobs(t, req.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepReport(req, outs).JSON()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := ref.Stats().TraceCaptures; got != int64(len(arms)) {
		t.Fatalf("the sweep's %d identities are %d binaries; each must be its own", len(arms), got)
	}

	coord := newCoordinator(t, hts.URL, bts.URL)
	for _, pass := range []string{"first touch", "repeat"} {
		got, err := coord.SweepJSON(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: dealt sweep differs from single-process:\n%s", pass, got)
		}
	}

	hst, bst := home.srv.eng.Stats(), borrower.srv.eng.Stats()
	if hst.TraceCaptures+bst.TraceCaptures != int64(len(arms)) || bst.TraceCaptures != 0 {
		t.Errorf("captures: home %d, borrower %d; want %d binaries, all on the home", hst.TraceCaptures, bst.TraceCaptures, len(arms))
	}
	hset, bset := home.traceSet(), borrower.traceSet()
	for tk, n := range arms {
		if !hset[tk] || bset[tk] != (n > 1) {
			t.Errorf("identity with %d arms: served by home %v, borrower %v", n, hset[tk], bset[tk])
		}
	}
	if bst.TracePeerHits != int64(multi) {
		t.Errorf("borrower fetched %d traces for %d borrowed identities", bst.TracePeerHits, multi)
	}
	if bst.TraceResidentBytes != 0 {
		t.Errorf("borrower still holds %d bytes of traces", bst.TraceResidentBytes)
	}
}

// TestUnissuableArmIsBadRequest: a max_size 5 arm without collapsing asks
// for 5-op integer chains on 4-stage ALU pipelines, which can never issue.
// It used to hold a worker slot until the client left; now it is answered
// 400, naming the template and the reason, inside a 5 s deadline — by one
// process, by a worker's /v1/outcome, and by a coordinator whose worker
// refused it.
func TestUnissuableArmIsBadRequest(t *testing.T) {
	bad := JobSpec{Arm: "too-long", Bench: "sha", MaxSize: 5, MaxRecords: 3000}
	sweep := SweepRequest{Jobs: []JobSpec{fastSpec("fine", false), bad}}
	single, _ := newTestServer(t, nil)
	w1, _ := newTestServer(t, nil)
	w2, _ := newTestServer(t, nil)
	coord := newCoordinator(t, w1.URL, w2.URL)
	isBadRequest := func(what string, err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest ||
			!strings.Contains(se.Msg, "can never issue") || !strings.Contains(se.Msg, "exceeds the 4-stage ALU pipeline") {
			t.Errorf("%s: err = %v, want a 400 naming the unissuable mini-graph", what, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for name, cl := range map[string]*Client{"single": NewClient(single.URL), "coordinator": coord} {
		_, err := cl.Sweep(ctx, sweep)
		isBadRequest(name+" sweep", err)
		_, err = cl.Simulate(ctx, bad)
		isBadRequest(name+" simulate", err)
	}
	_, err := NewClient(w1.URL).Outcome(ctx, bad)
	isBadRequest("worker outcome", err)
	if ctx.Err() != nil {
		t.Fatal("the unissuable arm was not answered inside 5 s")
	}
}
