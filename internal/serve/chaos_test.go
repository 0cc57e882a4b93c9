package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minigraph/internal/sim"
)

// blobChaos injects seeded, counted faults into the blobs a worker serves,
// as a wrapper around its handler. Every class maps to a real production
// failure — a peer that dies mid-transfer (drop), a network that flips bits
// (corrupt), a congested link (delay) — and the invariant under all of them
// is the one the coordinator already guarantees for worker deaths: the
// sweep report stays byte-identical, and a fault only costs recomputation
// (a blob re-fetched from the next peer, or a local re-capture). Faults
// apply per request, so with chunk streaming a dropped connection or a
// corrupted payload costs the asker one chunk retry, not the transfer.
type blobChaos struct {
	// drop aborts the connection mid-response; the fetching worker sees a
	// transport error and falls back to its next source or to capturing.
	drop float64
	// corrupt flips one random bit of the blob; the trace codec's frame CRC
	// must catch it on arrival (the engine's TracePeerRejects), degrading to
	// re-capture, never to a wrong replay.
	corrupt float64
	// delayP is the probability of sleeping delay first (with delay longer
	// than the fetcher's per-peer budget, a hung peer).
	delayP float64
	delay  time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	drops, corrupts, delays atomic.Int64
}

// strikes reports whether a fault of probability p fires now.
func (c *blobChaos) strikes(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < p
}

func (c *blobChaos) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// wrap serves h, with faults in every blob h serves; any other response
// passes through untouched.
func (c *blobChaos) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/blobs/") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			if c.strikes(c.delayP) {
				c.delays.Add(1)
				time.Sleep(c.delay)
			}
			if c.strikes(c.drop) {
				c.drops.Add(1)
				panic(http.ErrAbortHandler) // the peer dies mid-transfer
			}
			if len(body) > 0 && c.strikes(c.corrupt) {
				c.corrupts.Add(1)
				bit := c.intn(len(body) * 8)
				body[bit/8] ^= 1 << (bit % 8)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// chaosSweep is a small sweep with multiple arms per trace identity, so
// re-routed arms have blobs worth fetching.
func chaosSweep() SweepRequest {
	req := SweepRequest{Name: "chaos", Title: "chaos sweep"}
	for _, b := range []string{"sha", "adpcm.enc"} {
		for i, spec := range []JobSpec{
			{Baseline: true, Machine: "baseline"},
			{},
			{Entries: 128},
		} {
			spec.Bench = b
			spec.MaxRecords = 3000
			spec.Arm = fmt.Sprintf("%s/v%d", b, i)
			req.Jobs = append(req.Jobs, spec)
		}
	}
	return req
}

// chaosWorker builds a worker server, with chaos (if any) on its blob path,
// and returns it with its test listener.
func chaosWorker(t *testing.T, chaos *blobChaos) (*Server, *httptest.Server) {
	t.Helper()
	srv := mustNew(t, Options{Engine: sim.New(2)})
	var h http.Handler = srv
	if chaos != nil {
		h = chaos.wrap(srv)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// runChaosTier runs chaosSweep over a dynamic two-worker tier where the
// second worker joins only after the first has captured everything — so
// every arm the join re-routes must fetch (or fail to fetch) its blob
// from worker 1, whose blob path runs under the given chaos injector.
// Returns the sweep report bytes and the two worker servers.
func runChaosTier(t *testing.T, chaos *blobChaos) ([]byte, *Server, *Server) {
	t.Helper()
	ctx := context.Background()
	req := chaosSweep()

	w1, ts1 := chaosWorker(t, chaos)
	w2, ts2 := chaosWorker(t, nil)

	csrv := mustNew(t, Options{
		Engine:      sim.New(2),
		Coordinator: true,
		MemberTTL:   time.Minute,
		// One arm in flight at a time, so the membership flip between the
		// two sweeps below cleanly separates "capture" from "re-route".
		FanoutConcurrency: 1,
		// Short call timeout keeps the per-peer blob budget (a fifth of
		// it) small, so a delayed peer is abandoned quickly.
		WorkerCallTimeout: 30 * time.Second,
	})
	cts := httptest.NewServer(csrv)
	t.Cleanup(func() {
		cts.Close()
		csrv.Close()
	})
	cl := NewClient(cts.URL)

	// Warm pass: only w1 is registered, so it captures every trace.
	if _, err := cl.RegisterWorker(ctx, ts1.URL); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Flip membership: w2 joins, w1 expires. Every arm now routes to w2,
	// which holds nothing — each trace identity triggers a blob fetch
	// from w1 (named as previous owner), through the chaos injector.
	if _, err := cl.RegisterWorker(ctx, ts2.URL); err != nil {
		t.Fatal(err)
	}
	csrv.coord.members.expireForTest(ts1.URL)

	got, err := cl.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, warm) {
		t.Fatalf("re-routed sweep under chaos differs from warm sweep:\n%s\nvs\n%s", got, warm)
	}
	if n := w2.eng.Stats().PipelineSims(); n == 0 {
		t.Fatal("joined worker ran nothing; membership flip did not re-route")
	}
	return warm, w1, w2
}

// TestChaosBlobDropsRecapture: every peer blob fetch dies mid-transfer.
// The re-routed worker must fall back to capturing locally and the report
// must not change.
func TestChaosBlobDropsRecapture(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine tier; skipped in -short")
	}
	chaos := &blobChaos{drop: 1, rng: rand.New(rand.NewSource(1))}
	_, _, w2 := runChaosTier(t, chaos)
	if chaos.drops.Load() == 0 {
		t.Fatal("no blob transfers were dropped; the chaos path was not exercised")
	}
	st := w2.eng.Stats()
	if st.TracePeerHits != 0 {
		t.Errorf("worker adopted %d blobs although every transfer was dropped", st.TracePeerHits)
	}
	if st.TraceCaptures == 0 {
		t.Error("worker never fell back to capturing")
	}
}

// TestChaosBlobCorruptionRejected: every served blob has one bit flipped.
// The frame CRC must reject each transfer (TracePeerRejects) and the
// worker re-captures; the report must not change.
func TestChaosBlobCorruptionRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine tier; skipped in -short")
	}
	chaos := &blobChaos{corrupt: 1, rng: rand.New(rand.NewSource(2))}
	_, _, w2 := runChaosTier(t, chaos)
	if chaos.corrupts.Load() == 0 {
		t.Fatal("no blobs were corrupted; the chaos path was not exercised")
	}
	st := w2.eng.Stats()
	if st.TracePeerRejects == 0 {
		t.Error("corrupted blobs were not rejected by the frame CRC")
	}
	if st.TracePeerHits != 0 {
		t.Errorf("worker adopted %d corrupted blobs", st.TracePeerHits)
	}
	if st.TraceCaptures == 0 {
		t.Error("worker never fell back to capturing")
	}
}

// TestChaosBlobDelayWithinBudget: delayed (but not hung) peers still
// deliver; the report must not change and transfers still land.
func TestChaosBlobDelayWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine tier; skipped in -short")
	}
	chaos := &blobChaos{delayP: 1, delay: 50 * time.Millisecond, rng: rand.New(rand.NewSource(3))}
	_, _, w2 := runChaosTier(t, chaos)
	if chaos.delays.Load() == 0 {
		t.Fatal("no blob transfers were delayed; the chaos path was not exercised")
	}
	st := w2.eng.Stats()
	if st.TracePeerHits == 0 {
		t.Error("delayed transfers should still deliver blobs within the budget")
	}
}
