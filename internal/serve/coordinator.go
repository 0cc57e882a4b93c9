// Coordinator mode: mgserve as a horizontally scalable, elastic tier.
//
// The paper's experiments are embarrassingly parallel configuration sweeps
// over a shared record stream, and the expensive part — capturing that
// stream — is a memoizable artifact keyed by sim.TraceKey. The win in
// scaling out is therefore not raw fan-out but *placement*: every arm that
// shares a trace identity should land on the worker that already holds the
// capture (in its in-memory trace cache or its persistent store), so the
// tier as a whole still emulates each binary exactly once.
//
// The coordinator implements that placement with rendezvous (highest-
// random-weight) hashing: each arm's TraceKey encoding is hashed against
// every live worker URL, and the arm routes to the highest-scoring one.
// Rendezvous hashing gives per-key affinity with minimal disruption — when
// a worker dies, only its keys move (to their second choice), and they
// move back when it returns.
//
// Membership is dynamic (see membership.go): the routing view is sampled
// per arm, so workers that register mid-sweep start taking keys and
// workers whose heartbeat TTL lapses stop. When a key moves, the new
// owner fetches the captured trace blob from the key's previous owners
// (see blobs.go) instead of re-emulating, so elasticity costs a blob
// copy, not a capture.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"minigraph/internal/sim"
)

// DefaultWorkerCallTimeout bounds one worker call (dial + simulate +
// response). Simulations can legitimately take minutes, so the default is
// generous; its job is to catch a worker that accepted the connection and
// then hung, which would otherwise never error and never re-route.
const DefaultWorkerCallTimeout = 15 * time.Minute

// ErrWorkersUnavailable marks an arm failure caused by no worker
// answering at all (every ranked live worker refused the connection,
// timed out, or died mid-call — or the member table is empty) — a
// property of the tier's current state, not of the arm. The job manager
// retries jobs that fail with it under exponential backoff, so a sweep
// submitted during a tier restart or rolling deploy is requeued instead
// of failing terminally.
var ErrWorkersUnavailable = errors.New("no worker available")

// CoordinatorOptions configure a coordinator.
type CoordinatorOptions struct {
	// Workers are statically configured worker base URLs. Static members
	// are pinned live (they never expire); per-sweep failure marking still
	// re-routes around one that is down.
	Workers []string
	// AllowDynamic admits workers that register over HTTP; without it the
	// member table is fixed to Workers, which then must be non-empty.
	AllowDynamic bool
	// MemberTTL is how long a dynamic member stays routable after its last
	// heartbeat (0 = DefaultMemberTTL).
	MemberTTL time.Duration
	// FanoutConcurrency bounds in-flight worker calls across all requests
	// (0 = max(8, 4 × static workers)).
	FanoutConcurrency int
	// WorkerCallTimeout bounds one worker call (0 = DefaultWorkerCallTimeout).
	WorkerCallTimeout time.Duration
}

// Coordinator fans simulation arms out across a tier of worker mgserve
// processes, sharding by trace-key affinity over a live member view, with
// bounded concurrency, failure re-routing, and peer blob transfer. It is
// safe for concurrent use.
type Coordinator struct {
	members     *memberSet
	dynamic     bool
	static      []string
	sem         chan struct{}
	callTimeout time.Duration
	hc          *http.Client

	cmu     sync.Mutex
	clients map[string]*Client
}

// NewCoordinator builds a coordinator. It returns an error — never
// panics — when the configuration cannot route anything: no static
// workers and dynamic registration disabled (a bad flag must not take
// down a server binary).
func NewCoordinator(o CoordinatorOptions) (*Coordinator, error) {
	static := make([]string, 0, len(o.Workers))
	for _, u := range o.Workers {
		n, err := normalizeWorkerURL(u)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		static = append(static, n)
	}
	if len(static) == 0 && !o.AllowDynamic {
		return nil, fmt.Errorf("serve: coordinator needs at least one worker URL (or dynamic registration enabled)")
	}
	concurrency := o.FanoutConcurrency
	if concurrency <= 0 {
		concurrency = 4 * len(static)
		if concurrency < 8 {
			concurrency = 8
		}
	}
	callTimeout := o.WorkerCallTimeout
	if callTimeout <= 0 {
		callTimeout = DefaultWorkerCallTimeout
	}
	c := &Coordinator{
		members:     newMemberSet(static, o.MemberTTL),
		dynamic:     o.AllowDynamic,
		static:      static,
		sem:         make(chan struct{}, concurrency),
		callTimeout: callTimeout,
		clients:     make(map[string]*Client),
	}
	// One shared transport: bounded dial time (an unreachable worker
	// fails fast), keep-alives so per-arm calls reuse connections.
	c.hc = &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConnsPerHost: concurrency,
		IdleConnTimeout:     90 * time.Second,
	}}
	return c, nil
}

// WorkerURLs returns the statically configured worker base URLs (a copy).
// The full member table — static and registered — is Members().
func (c *Coordinator) WorkerURLs() []string {
	return append([]string(nil), c.static...)
}

// Members snapshots the member table with last-heartbeat ages.
func (c *Coordinator) Members() []MemberStatus { return c.members.view() }

// Register records a worker heartbeat and returns the membership TTL the
// worker should beat well within. An error means dynamic registration is
// disabled.
func (c *Coordinator) Register(url string) (time.Duration, error) {
	n, err := normalizeWorkerURL(url)
	if err != nil {
		return 0, err
	}
	if !c.dynamic {
		return 0, fmt.Errorf("dynamic worker registration is disabled on this coordinator")
	}
	ttl, _ := c.members.register(n)
	return ttl, nil
}

// client returns the (cached) Client for a worker URL, sharing the
// coordinator's transport.
func (c *Coordinator) client(url string) *Client {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if cl, ok := c.clients[url]; ok {
		return cl
	}
	cl := NewClient(url)
	cl.HTTP = c.hc
	c.clients[url] = cl
	return cl
}

// Run executes every arm on the worker tier and returns outcomes
// index-aligned with jobs, with the same error-joining semantics as
// sim.Engine.Run. Each arm routes to the live members in rendezvous order
// of its trace key — the member view is sampled per arm, so joins and
// leaves mid-sweep re-route only the not-yet-dispatched arms whose home
// changed. A worker that fails a call is marked down for the rest of this
// Run and the arm re-routes to its next choice. onDone (optional) fires
// per completed arm from that arm's goroutine.
//
// Because workers answer with full canonical outcomes (/v1/outcome), a
// report assembled from Run's results is byte-identical to single-process
// execution — no matter how the arms were sharded, how membership changed,
// or how many workers died along the way, as long as at least one can
// still answer.
func (c *Coordinator) Run(ctx context.Context, specs []JobSpec, jobs []sim.SimJob, onDone func(int, *sim.Outcome)) ([]*sim.Outcome, error) {
	if len(specs) != len(jobs) {
		return nil, fmt.Errorf("serve: %d specs for %d jobs", len(specs), len(jobs))
	}
	outs := make([]*sim.Outcome, len(jobs))
	down := &downSet{m: make(map[string]bool)}
	err := sim.FanOut(ctx, len(jobs), c.sem, func(ctx context.Context, i int) error {
		out, err := c.runArm(ctx, specs[i], jobs[i], down)
		if err != nil {
			return err
		}
		outs[i] = out
		if onDone != nil {
			onDone(i, out)
		}
		return nil
	})
	return outs, err
}

// runArm executes one arm, trying live members in rendezvous order of the
// arm's trace key; the member view is re-sampled after every failure, so
// a worker that registers while the arm is retrying becomes a candidate.
// Only failures to *answer* — transport errors, call timeouts — mark the
// worker down (for this Run) and re-route. Any HTTP status, 4xx or 5xx,
// is an answer: the worker is alive and the error is the arm's own (bad
// spec, deterministic simulation failure), so the arm fails immediately
// instead of re-running its capture on every worker and poisoning the
// downSet for its siblings.
//
// Each call names the key's other ranked owners in the blob-peers header:
// if the target lacks the capture (the key just moved to it), it fetches
// the blob from the previous owner instead of re-emulating.
func (c *Coordinator) runArm(ctx context.Context, spec JobSpec, job sim.SimJob, down *downSet) (*sim.Outcome, error) {
	tkb, err := sim.EncodeTraceKey(job.Key().TraceKey())
	if err != nil {
		return nil, fmt.Errorf("serve: arm %q: trace key: %w", spec.label(), err)
	}
	var lastErr error
	tried := 0
	for ctx.Err() == nil {
		target := c.pickWorker(tkb, down)
		if target == "" {
			break
		}
		tried++
		actx, cancel := context.WithTimeout(ctx, c.callTimeout)
		// A fifth of the call budget per peer blob attempt: even with every
		// named peer hung, the worker still has most of the timeout left to
		// capture the trace itself.
		out, err := c.client(target).OutcomeFrom(actx, spec, c.peersFor(tkb, target, down), c.callTimeout/5)
		cancel()
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var se *StatusError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("serve: arm %q: worker %s: %w", spec.label(), target, err)
		}
		down.set(target)
		lastErr = fmt.Errorf("worker %s: %v", target, err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live members (%d known, %d tried)", len(c.members.known()), tried)
	}
	return nil, fmt.Errorf("serve: arm %q: %w: %v", spec.label(), ErrWorkersUnavailable, lastErr)
}

// pickWorker returns the highest-ranked live member for key that is not
// marked down ("" when none remains).
func (c *Coordinator) pickWorker(key []byte, down *downSet) string {
	live := c.members.live()
	for _, i := range rankByRendezvous(live, key) {
		if !down.is(live[i]) {
			return live[i]
		}
	}
	return ""
}

// peersFor names the workers (live or recently expired) most likely to
// already hold key's trace blob: the rendezvous ranking over every known
// member except the target itself and any worker this Run already saw
// fail (a peer that refuses calls would only burn the arm's deadline).
// When a key just moved to a newly joined target, the first peer is
// exactly the key's previous owner; when the target is the failover
// choice, the first peer is the old home — possibly expired but still
// answering /v1/blobs, in which case the blob moves instead of being
// re-captured.
func (c *Coordinator) peersFor(key []byte, target string, down *downSet) []string {
	known := c.members.known()
	peers := make([]string, 0, maxBlobPeers)
	for _, i := range rankByRendezvous(known, key) {
		if known[i] == target || down.is(known[i]) {
			continue
		}
		peers = append(peers, known[i])
		if len(peers) == maxBlobPeers {
			break
		}
	}
	return peers
}

// downSet tracks workers observed failing during one Run. Marking is
// monotonic within the Run; a fresh Run starts trusting every worker
// again, so a recovered worker rejoins on the next request.
type downSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func (d *downSet) is(url string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m[url]
}

func (d *downSet) set(url string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[url] = true
}

// rankByRendezvous orders worker indices by descending rendezvous score
// for key: score(i) = mix64(h(urls[i]) ⊕ h(key)). The top-ranked worker
// is the key's home; the rest are its failover order. The ordering is a
// pure function of (urls, key), so every coordinator instance over the
// same member view routes identically — and a key's home only changes
// when its own worker leaves the view.
//
// Raw FNV is too correlated across strings that differ in one character
// for direct use as a rendezvous score (one worker ends up winning nearly
// every key), so the combined hash runs through a SplitMix64 finalizer to
// decorrelate the per-worker scores.
func rankByRendezvous(urls []string, key []byte) []int {
	hk := fnv.New64a()
	_, _ = hk.Write(key)
	keyHash := hk.Sum64()
	type scored struct {
		i     int
		score uint64
	}
	rank := make([]scored, len(urls))
	for i, u := range urls {
		h := fnv.New64a()
		_, _ = h.Write([]byte(u))
		rank[i] = scored{i: i, score: mix64(h.Sum64() ^ keyHash)}
	}
	sort.Slice(rank, func(a, b int) bool {
		if rank[a].score != rank[b].score {
			return rank[a].score > rank[b].score
		}
		return urls[rank[a].i] < urls[rank[b].i]
	})
	order := make([]int, len(rank))
	for i, s := range rank {
		order[i] = s.i
	}
	return order
}

// mix64 is the SplitMix64 finalizer: a cheap bijective avalanche so every
// input bit flips ~half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
