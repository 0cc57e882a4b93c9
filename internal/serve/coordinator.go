// Coordinator mode: mgserve as a horizontally scalable, elastic tier.
//
// The paper's experiments are embarrassingly parallel configuration sweeps
// over a shared record stream, and the expensive part — capturing that
// stream — is a memoizable artifact keyed by sim.TraceKey. The win in
// scaling out is therefore not raw fan-out but *placement*: the tier as a
// whole should still emulate each binary exactly once, however many
// workers replay it.
//
// The coordinator places arms with rendezvous (highest-random-weight)
// hashing: each arm's TraceKey encoding is hashed against every live
// worker URL, and the ranking orders the workers for that key. The top
// one is the key's home: the home captures and keeps the trace (in its
// in-memory trace cache and its persistent store). A sweep's arms over
// one key are dealt over the top two, so a single sweep keeps two workers
// busy: the second choice borrows the trace — from its store or, over the
// peer blob path, from the home — replays its arms and releases the trace
// again, so each trace stays resident on its home only. Rendezvous hashing
// disrupts little: when a worker dies, only its keys move (each to its
// next choice), and they move back when it returns.
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
// processes, dealing each trace key's arms over its top two members of a
// live view (see Run), with bounded concurrency, failure re-routing, and
// peer blob transfer. It is safe for concurrent use.
type Coordinator struct {
	members     *memberSet
	dynamic     bool
	static      []string
	sem         chan struct{}
	callTimeout time.Duration
	hc          *http.Client
	seen        *seenKeys // trace keys an arm of which completed (see Run)

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
		seen:        newSeenKeys(seenCap),
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
// sim.Engine.Run. onDone (optional) fires per completed arm from that
// arm's goroutine.
//
// Arms are grouped by trace key. A group of one arm, and every group on a
// tier with one live worker, routes to the key's home: the first live
// member in rendezvous order. A larger group is dealt alternately over
// the key's top two live members. The home captures and keeps the trace;
// the second choice borrows it (from its store or a peer, never by
// capturing) and releases it after each arm. If the coordinator has not
// yet seen an arm of the key complete, the group's first arm runs alone on
// the home and the rest are dealt when it returns, so the tier captures
// the trace once. The member view is sampled per arm, so joins and leaves
// mid-sweep re-route only the not-yet-dispatched arms whose choice
// changed. A worker that fails a call is marked down for the rest of this
// Run and the arm re-routes to the next live member in rank order.
//
// Because workers answer with full canonical outcomes (/v1/outcome), a
// report assembled from Run's results is byte-identical to single-process
// execution — no matter how the arms were dealt, how membership changed,
// or how many workers died along the way, as long as at least one can
// still answer.
func (c *Coordinator) Run(ctx context.Context, specs []JobSpec, jobs []sim.SimJob, onDone func(int, *sim.Outcome)) ([]*sim.Outcome, error) {
	if len(specs) != len(jobs) {
		return nil, fmt.Errorf("serve: %d specs for %d jobs", len(specs), len(jobs))
	}
	keys := make([][]byte, len(jobs))
	groups := make(map[string][]int) // arm indices per trace key, in order
	for i, job := range jobs {
		tkb, err := sim.EncodeTraceKey(job.Key().TraceKey())
		if err != nil {
			return nil, fmt.Errorf("serve: arm %q: trace key: %w", specs[i].label(), err)
		}
		keys[i] = tkb
		groups[string(tkb)] = append(groups[string(tkb)], i)
	}
	// slot[i] is arm i's rank among the key's live members (0 = home);
	// an arm with a wait channel starts once its group's first arm returns,
	// which closes lead[first].
	slot := make([]int, len(jobs))
	wait := make([]chan struct{}, len(jobs))
	lead := make([]chan struct{}, len(jobs))
	if len(c.members.live()) > 1 {
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			var first chan struct{}
			if !c.seen.has(keyHash(keys[g[0]])) {
				first = make(chan struct{})
				lead[g[0]] = first
			}
			for n, i := range g {
				slot[i] = n % 2
				if n > 0 {
					wait[i] = first
				}
			}
		}
	}

	outs := make([]*sim.Outcome, len(jobs))
	down := &downSet{m: make(map[string]bool)}
	// Arms take a fan-out slot only once they may start: a dealt arm
	// waiting on its group's first arm must not hold one the first needs.
	err := sim.FanOut(ctx, len(jobs), nil, func(ctx context.Context, i int) error {
		if lead[i] != nil {
			defer close(lead[i])
		}
		if wait[i] != nil {
			select {
			case <-wait[i]:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		select {
		case c.sem <- struct{}{}:
			defer func() { <-c.sem }()
		case <-ctx.Done():
			return ctx.Err()
		}
		out, err := c.runArm(ctx, specs[i], keys[i], slot[i], down)
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

// runArm executes one arm on the live member at rank slot of the arm's
// trace key (see route); the member view is re-sampled after every
// failure, so a worker that registers while the arm is retrying becomes a
// candidate. Only failures to *answer* — transport errors, call timeouts —
// mark the worker down (for this Run) and re-route. Any HTTP status, 4xx
// or 5xx, is an answer: the worker is alive and the error is the arm's own
// (bad spec, unissuable machine, deterministic simulation failure), so the
// arm fails immediately instead of re-running its capture on every worker
// and poisoning the downSet for its siblings.
//
// Each call names the key's other ranked owners in the blob-peers header:
// if the target lacks the capture (it borrows the trace, or the key just
// moved to it), it fetches the blob from them instead of re-emulating. A
// call to any member but the key's live home carries the borrow header.
func (c *Coordinator) runArm(ctx context.Context, spec JobSpec, tkb []byte, slot int, down *downSet) (*sim.Outcome, error) {
	var lastErr error
	tried := 0
	for ctx.Err() == nil {
		target, borrow := c.route(tkb, slot, down)
		if target == "" {
			break
		}
		tried++
		actx, cancel := context.WithTimeout(ctx, c.callTimeout)
		// A fifth of the call budget per peer blob attempt: even with every
		// named peer hung, the worker still has most of the timeout left to
		// capture the trace itself.
		out, err := c.client(target).OutcomeFrom(actx, spec, c.peersFor(tkb, target, down), c.callTimeout/5, borrow)
		cancel()
		if err == nil {
			c.seen.add(keyHash(tkb))
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

// route returns the live member at rank slot of key among those not
// marked down — the last one when fewer remain — and whether that member
// borrows key's trace, that is, is not its live home ("" when none
// remains). With the home down, rank 0 is the next member in rank order.
func (c *Coordinator) route(key []byte, slot int, down *downSet) (target string, borrow bool) {
	live := c.members.live()
	up := make([]string, 0, slot+1)
	for _, i := range rankByRendezvous(live, key) {
		if !down.is(live[i]) {
			if up = append(up, live[i]); len(up) > slot {
				break
			}
		}
	}
	if len(up) == 0 {
		return "", false
	}
	return up[len(up)-1], len(up) > 1
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

// seenCap bounds the coordinator's seen-key set (see seenKeys).
const seenCap = 4096

// seenKeys remembers the trace keys, by hash, of which the coordinator has
// seen an arm complete: a sweep over such a key deals every arm at once
// instead of running the first alone while the home captures. The set is a
// routing hint, so it holds at most cap keys, first in first out. A
// forgotten key costs its next sweep a serial first arm; a stale one (the
// home lost the trace) costs at most one extra capture; neither changes an
// answer.
type seenKeys struct {
	mu   sync.Mutex
	cap  int
	set  map[uint64]struct{}
	fifo []uint64 // insertion order; fifo[next] is evicted next once full
	next int
}

func newSeenKeys(n int) *seenKeys {
	return &seenKeys{cap: n, set: make(map[uint64]struct{})}
}

func (s *seenKeys) has(h uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.set[h]
	return ok
}

func (s *seenKeys) add(h uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.set[h]; ok {
		return
	}
	if len(s.fifo) < s.cap {
		s.fifo = append(s.fifo, h)
	} else {
		delete(s.set, s.fifo[s.next])
		s.fifo[s.next] = h
		s.next = (s.next + 1) % s.cap
	}
	s.set[h] = struct{}{}
}

// keyHash is the FNV-64a hash of an encoded trace key: the key's half of
// every rendezvous score, and its name in the seen-key set.
func keyHash(key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return h.Sum64()
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
	kh := keyHash(key)
	type scored struct {
		i     int
		score uint64
	}
	rank := make([]scored, len(urls))
	for i, u := range urls {
		h := fnv.New64a()
		_, _ = h.Write([]byte(u))
		rank[i] = scored{i: i, score: mix64(h.Sum64() ^ kh)}
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
