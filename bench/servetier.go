package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
)

const (
	serveFreshPerBench = 5  // fresh 4-arm sweeps per binary
	serveRepeats       = 13 // exact repeats: a quarter of the 53 requests
	serveArmsPerSweep  = 4
	serveVerifyShare   = 10 // percent of fresh requests recomputed in-process
)

// serveTier is the only workload that crosses internal/serve: an
// in-process dynamic coordinator and workers behind real http.Servers on
// loopback, driven by closed-loop clients (a caller waits for its report
// before asking for the next one; see env.clients for how many).
type serveTier struct {
	reqs   []request
	verify []int // seeded sample of fresh requests recomputed in-process
	arms   []serve.JobSpec
}

func newServeTier(seed int64, e *env) *serveTier {
	rng := rand.New(rand.NewSource(seed))
	perBench := e.sized(serveFreshPerBench, 2)
	w := &serveTier{reqs: serveRequests(rng, serveTierBenches, perBench, e.sized(serveRepeats, 2), serveArmsPerSweep)}
	var fresh []int
	for i, rq := range w.reqs {
		if rq.RepeatOf < 0 {
			fresh = append(fresh, i)
			w.arms = append(w.arms, rq.Sweep.Jobs...)
		}
	}
	n := (len(fresh)*serveVerifyShare + 99) / 100
	for _, k := range rng.Perm(len(fresh))[:n] {
		w.verify = append(w.verify, fresh[k])
	}
	return w
}

func (w *serveTier) layerPlan() layerPlan { return layerPlan{Arms: w.arms, Stored: true, Served: true} }

// node is one mgserve instance of the tier: engine, optional store, API
// handler and the HTTP server in front of it.
type node struct {
	url  string
	eng  *sim.Engine
	st   *store.Store
	api  *serve.Server
	http *http.Server
	done chan struct{}
}

// startNode listens on a fixed loopback port (so worker URLs, and with
// them rendezvous placement, repeat from run to run) and serves the API
// behind the traced run's middleware. A busy port fails the run at once.
func startNode(e *env, port int, role string, lane int, o serve.Options, hm *httpMeter) (*node, error) {
	api, err := serve.New(o)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		api.Close()
		return nil, fmt.Errorf("%s: %w (another run holding -port-base %d?)", role, err, e.portBase)
	}
	n := &node{url: "http://" + addr, eng: o.Engine, st: o.Engine.Store(), api: api, done: make(chan struct{})}
	n.http = &http.Server{Handler: hm.wrap(role, lane, api), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return n, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, and stops the API's job runners.
func (n *node) stop() {
	_ = n.http.Close()
	<-n.done
	n.api.Close()
}

func (w *serveTier) round(e *env) (*roundResult, error) {
	r := &roundResult{Extra: make(map[string]float64)}
	t0 := time.Now()
	hm := newHTTPMeter(e.tr)
	// Emulator references for every binary; the requests recomputed
	// in-process after the timed region are checked against them.
	refs, err := references(w.arms)
	if err != nil {
		return nil, err
	}

	var nodes []*node
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	coord, err := startNode(e, e.portBase, "coord", 10, serve.Options{Engine: sim.New(1), Coordinator: true, MemberTTL: time.Hour}, hm)
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, coord)
	dir, err := os.MkdirTemp(e.tmp, "tier-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var workers []*node
	for i := 1; i <= 3; i++ {
		st, err := store.Open(fmt.Sprintf("%s/w%d", dir, i), store.Options{})
		if err != nil {
			return nil, err
		}
		n, err := startNode(e, e.portBase+i, "worker", 10+i, serve.Options{Engine: sim.New(1).WithStore(st)}, hm)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		workers = append(workers, n)
	}
	admin := serve.NewClient(coord.url)
	for _, n := range workers[:2] {
		if _, err := admin.RegisterWorker(e.ctx, n.url); err != nil {
			return nil, fmt.Errorf("register %s: %w", n.url, err)
		}
	}
	// One keep-alive connection pool per closed-loop client.
	clients := make([]*serve.Client, e.clients())
	for i := range clients {
		tp := &http.Transport{MaxIdleConnsPerHost: 2}
		defer tp.CloseIdleConnections()
		clients[i] = serve.NewClient(coord.url)
		clients[i].HTTP = &http.Client{Transport: tp}
	}
	r.Setup = time.Since(t0)

	replies := make([][]byte, len(w.reqs))
	errs := make([]error, len(w.reqs))
	lat := make([]time.Duration, len(w.reqs))
	// phase sends requests [lo, hi) from all clients and waits for them.
	phase := func(lo, hi int) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func(c int, cl *serve.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					t := time.Now()
					id := hm.beginCall(w.reqs[i].Sweep.Name, 1+c)
					replies[i], errs[i] = cl.SweepJSON(e.ctx, w.reqs[i].Sweep)
					e.tr.end(id)
					lat[i] = time.Since(t)
				}
			}(c, cl)
		}
		wg.Wait()
	}
	// The third worker joins at the half-way barrier: keys whose rendezvous
	// home moves to it arrive by manifest + chunk transfer from their old
	// owner. Joining between phases (not mid-flight) keeps every counter of
	// the round deterministic.
	half := len(w.reqs) / 2
	var statsA [3]sim.Stats
	var joinErr error
	r.Wall = e.timedRegion(&r.Counts, func() {
		phase(0, half)
		for i, n := range workers {
			statsA[i] = n.eng.Stats()
		}
		_, joinErr = admin.RegisterWorker(e.ctx, workers[2].url)
		phase(half, len(w.reqs))
	})
	if joinErr != nil {
		return nil, fmt.Errorf("register %s: %w", workers[2].url, joinErr)
	}
	r.Reqs = lat
	for _, d := range lat {
		r.Counts.RunWall += d
	}

	// Verification, outside the timed region.
	good := make([]bool, len(w.reqs))
	for i, rq := range w.reqs {
		ok := errs[i] == nil
		if ok && rq.RepeatOf >= 0 {
			ok = bytes.Equal(replies[i], replies[rq.RepeatOf])
		}
		good[i] = r.op(1, ok, "request %d (%s): err=%v, repeat-of=%d equal=%v", i, rq.Sweep.Name, errs[i], rq.RepeatOf, ok)
	}
	// Check (c): a served report equals the in-process one, byte for byte;
	// check (b) rides on the in-process outcomes.
	local := sim.New(e.cpus)
	for _, i := range w.verify {
		rq := w.reqs[i].Sweep
		jobs, err := resolveAll(rq.Jobs)
		if err != nil {
			return nil, err
		}
		outs, err := local.Run(e.ctx, jobs)
		if r.checkOutcomes(refs, jobs, outs, err) != len(jobs) {
			good[i] = false
			continue
		}
		want, err := serve.SweepReport(rq, outs).JSON()
		if err != nil {
			return nil, err
		}
		if !r.op(1, errs[i] == nil && bytes.Equal(replies[i], append(want, '\n')), "request %d: served report differs from the in-process one", i) {
			good[i] = false
		}
	}
	for i := range good {
		if good[i] {
			r.Arms += len(w.reqs[i].Sweep.Jobs)
		}
	}

	var perWorker []float64
	var captures, capturesA int64
	for i, n := range workers {
		st := n.eng.Stats()
		r.Counts.addEngine(st)
		r.Counts.addStore(n.st)
		perWorker = append(perWorker, float64(st.SimRuns))
		captures += st.TraceCaptures
		capturesA += statsA[i].TraceCaptures
	}
	// Every binary was first touched (captured) in phase A, so a capture in
	// phase B means a moved key was re-emulated instead of transferred.
	r.Extra["serve.recaptures_after_move"] = float64(captures - capturesA)
	r.Extra["serve.worker_imbalance"] = ratio(percentile(perWorker, 100), mean(perWorker))
	r.Extra["serve.phase_a_req_p50_ms"] = percentile(millis(lat[:half]), 50)
	r.Extra["serve.phase_b_req_p50_ms"] = percentile(millis(lat[half:]), 50)
	if e.tr != nil {
		hm.report(r.Extra) // before the probe below, so the counts are the sweeps' own
		// The HTTP + codec floor: a memo-hit /v1/outcome straight at a worker.
		spec := w.reqs[0].Sweep.Jobs[0]
		spec.Arm = directArm
		cl := serve.NewClient(workers[0].url)
		var direct []time.Duration
		for k := 0; k < 51; k++ {
			t := time.Now()
			if _, err := cl.Outcome(e.ctx, spec); err != nil {
				return nil, fmt.Errorf("direct outcome: %w", err)
			}
			if k > 0 { // the first call may compute; the rest are memo hits
				direct = append(direct, time.Since(t))
			}
		}
		r.Extra["serve.direct_outcome_p50_ms"] = percentile(millis(direct), 50)
	}
	return r, nil
}

// directArm labels the direct memo-hit probe calls, so their handler spans
// are not counted as sweep traffic.
const directArm = "direct"

// httpMeter is the traced run's view of the wire: an http.Handler
// middleware that records one span per request with its wire bytes, and
// the client-side call spans they nest under. A meter with a nil tracer
// wraps nothing, so untraced rounds serve through the bare API handler.
type httpMeter struct {
	tr *tracer

	mu    sync.Mutex
	calls map[string]int // request id -> client call span
	coord map[string]int // request id -> coordinator handler span

	requests, non2xx          atomic.Int64
	bytesIn, bytesOut, blobSz atomic.Int64
}

func newHTTPMeter(tr *tracer) *httpMeter {
	return &httpMeter{tr: tr, calls: make(map[string]int), coord: make(map[string]int)}
}

// beginCall opens the client-side span of one sweep request.
func (m *httpMeter) beginCall(reqID string, lane int) int {
	if m.tr == nil {
		return -1
	}
	id := m.tr.begin("serve.client_call", reqID, lane, -1, -1)
	m.mu.Lock()
	m.calls[reqID] = id
	m.mu.Unlock()
	return id
}

// countingBody counts request-body bytes as the handler reads them.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// meteredWriter counts response bytes and remembers the status.
type meteredWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *meteredWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrap instruments one node's handler. Spans nest client call ->
// coordinator handler -> worker handler by request id: the coordinator
// reads it from the sweep's name, a worker from the arm label the
// generator prefixed with it (both travel in the JSON body, so the body is
// read up front and handed back to the API untouched).
func (m *httpMeter) wrap(role string, lane int, h http.Handler) http.Handler {
	if m.tr == nil {
		return h
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		name, reqID, parent := "serve."+role+"_handler", "", -1
		isBlob := strings.HasPrefix(r.URL.Path, "/v1/blobs/")
		switch {
		case isBlob:
			name = "serve.blob_handler"
		case r.Method == http.MethodPost && (r.URL.Path == "/v1/sweep" || r.URL.Path == "/v1/outcome"):
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			reqID = requestID(body, role)
			m.mu.Lock()
			if role == "coord" {
				parent = lookup(m.calls, reqID)
			} else {
				parent = lookup(m.coord, reqID)
			}
			m.mu.Unlock()
		}
		id := m.tr.begin(name, reqID, lane, parent, -1)
		if role == "coord" && reqID != "" {
			m.mu.Lock()
			m.coord[reqID] = id
			m.mu.Unlock()
		}
		var in atomic.Int64
		r.Body = countingBody{r.Body, &in}
		mw := &meteredWriter{ResponseWriter: rw, status: http.StatusOK}
		h.ServeHTTP(mw, r)
		m.tr.end(id)
		m.requests.Add(1)
		if mw.status < 200 || mw.status > 299 {
			m.non2xx.Add(1)
		}
		m.bytesIn.Add(in.Load())
		m.bytesOut.Add(mw.n)
		if isBlob {
			m.blobSz.Add(mw.n)
		}
	})
}

func lookup(m map[string]int, k string) int {
	if id, ok := m[k]; ok {
		return id
	}
	return -1
}

// requestID pulls the request id out of a JSON body without decoding it:
// the sweep's "name" at the coordinator, the "rN/" prefix of the arm label
// at a worker.
func requestID(body []byte, role string) string {
	key := []byte(`"arm":"`)
	if role == "coord" {
		key = []byte(`"name":"`)
	}
	i := bytes.Index(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	end := bytes.IndexAny(rest, `"/`)
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

// report adds the wire counters to a round's per-layer extras.
func (m *httpMeter) report(extra map[string]float64) {
	extra["serve.requests"] = float64(m.requests.Load())
	extra["serve.non2xx"] = float64(m.non2xx.Load())
	extra["serve.bytes_in"] = float64(m.bytesIn.Load())
	extra["serve.bytes_out"] = float64(m.bytesOut.Load())
	extra["serve.blob_bytes"] = float64(m.blobSz.Load())
}
