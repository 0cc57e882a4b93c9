// Command mgserve exposes the simulation engine as an HTTP service. Every
// request funnels through one shared memoizing engine, so identical jobs
// coalesce across concurrent callers, and with -cache-dir the results
// persist: a restarted server answers previously computed jobs without
// running a single pipeline simulation.
//
// Usage:
//
//	mgserve [-addr :8347] [-cache-dir DIR] [-cache-max-bytes N] [-scrub]
//	        [-parallel N] [-max-sweep-jobs N]
//	        [-trace-chunk-records N] [-trace-chunk-window N] [-trace-compress]
//	        [-workers URL,URL,...] [-coordinator] [-member-ttl D] [-fanout N]
//	        [-register URL -advertise URL [-heartbeat D]]
//	        [-rate-limit N] [-rate-burst N] [-max-inflight-sweeps N]
//	        [-max-body-bytes N] [-job-queue N] [-job-runners N]
//
// How sweep arms sharing a captured trace execute is not a flag: with
// -cache-dir and -trace-chunk-window they replay chunks spilled to the
// store, and execute as gangs — their pipelines interleave over one
// traversal, so each chunk is faulted in once per gang instead of once per
// arm; a server whose traces are resident replays every arm on its own
// cursor, which is the faster path there. Reports are byte-identical
// either way and /statsz's gang counters show which one ran. In
// coordinator mode workers see arms one at a time, so nothing gangs.
//
// With -workers (static members) or -coordinator (dynamic membership) the
// process runs as a coordinator: sweep arms are placed on the worker
// mgserve processes by trace key (rendezvous hashing). The home captures
// and keeps the trace; the second choice borrows it and releases it, so a
// sweep's arms over one trace run on two workers. Worker failures re-route
// automatically and the merged report is byte-identical to single-process
// execution. Under -coordinator, workers join the tier
// by registering (and drop out when their heartbeat TTL lapses); a worker
// started with -register COORD -advertise SELF does that itself. Arms
// re-routed by membership changes fetch their captured traces from the
// key's previous owner instead of re-emulating, streamed chunk by chunk
// (GET /v1/blobs/{traceKey}?manifest=1, then ?chunk=N) with per-chunk
// damage rejection and resume across peers.
//
// Traces persist and move in fixed-size chunks (-trace-chunk-records per
// chunk); -trace-chunk-window bounds how many chunks each replay cursor
// keeps resident, letting traces larger than RAM replay from the store,
// and -trace-compress flate-compresses chunks at rest and on the wire.
//
// -rate-limit/-rate-burst and -max-inflight-sweeps bound traffic ahead of
// the compute endpoints (429 and 503 with Retry-After); -max-body-bytes
// caps request bodies (413).
//
// Endpoints (see internal/serve and the README for request shapes):
//
//	POST   /v1/simulate            one job
//	POST   /v1/sweep               a batch of arms, coalesced
//	POST   /v1/outcome             one job, canonical outcome encoding
//	POST   /v1/workers/register    join the tier / heartbeat
//	GET    /v1/workers             the member table
//	GET    /v1/blobs/{traceKey}    captured trace (peer transfer; ?manifest=1, ?chunk=N)
//	GET    /v1/experiments/{name}  full figure reproduction (Report JSON)
//	POST   /v1/jobs                submit an async sweep job
//	GET    /v1/jobs[/{id}[/report]] poll async jobs
//	DELETE /v1/jobs/{id}           cancel an async job
//	GET    /healthz                liveness
//	GET    /statsz                 engine + store + members + job counters
//
// Async job state persists in -cache-dir: jobs interrupted by a restart
// are requeued, finished ones stay observable with their reports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = in-memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "store size bound in bytes (0 = 1GiB default, negative = unbounded)")
	scrub := flag.Bool("scrub", false, "verify every store entry and trace segment at startup, deleting the corrupt ones (requires -cache-dir); the report appears in /statsz")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = NumCPU)")
	maxSweep := flag.Int("max-sweep-jobs", serve.DefaultMaxSweepJobs, "max arms per sweep request")
	workers := flag.String("workers", "", "comma-separated worker base URLs; enables coordinator mode")
	coordinator := flag.Bool("coordinator", false, "coordinator mode with dynamic worker registration (workers join via POST /v1/workers/register)")
	memberTTL := flag.Duration("member-ttl", 0, "coordinator: registered worker heartbeat TTL (0 = 15s)")
	fanout := flag.Int("fanout", 0, "coordinator: max in-flight worker calls (0 = 4 x workers)")
	workerTimeout := flag.Duration("worker-timeout", 0, "coordinator: per-worker-call timeout (0 = 15m); a hung worker counts as failed")
	register := flag.String("register", "", "coordinator base URL to register this worker with (requires -advertise)")
	advertise := flag.String("advertise", "", "this worker's own base URL, as the coordinator should reach it")
	heartbeat := flag.Duration("heartbeat", 0, "registration heartbeat interval (0 = a third of the coordinator's TTL)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client requests/second admitted to /v1/sweep and /v1/jobs (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "rate-limit bucket capacity (0 = 2 x rate)")
	maxInflight := flag.Int("max-inflight-sweeps", 0, "max concurrently executing synchronous sweeps before shedding 503 (0 = 16, negative = unbounded)")
	maxBody := flag.Int64("max-body-bytes", 0, "max request body bytes before 413 (0 = 8MiB, negative = uncapped)")
	jobQueue := flag.Int("job-queue", serve.DefaultJobQueue, "max queued async jobs")
	jobRunners := flag.Int("job-runners", serve.DefaultJobRunners, "async jobs executed concurrently")
	chunkRecords := flag.Int64("trace-chunk-records", 0, "records per trace chunk, rounded up to a power of two (0 = 64Ki)")
	chunkWindow := flag.Int("trace-chunk-window", 0, "max trace chunks resident per replay cursor (0 = unbounded; bounding requires -cache-dir)")
	traceCompress := flag.Bool("trace-compress", false, "flate-compress trace chunks at rest and on the wire (CRCs stay over raw records)")
	flag.Parse()

	usageExit := func(msg string) {
		fmt.Fprintf(os.Stderr, "mgserve: %s\n", msg)
		flag.Usage()
		os.Exit(2)
	}

	if *chunkWindow > 0 && *cacheDir == "" {
		// Captures only spill to a store: without one every trace stays
		// fully resident and the bound would silently not be in force.
		usageExit("-trace-chunk-window requires -cache-dir")
	}
	eng := sim.New(*parallel).
		WithTraceChunkRecords(*chunkRecords).
		WithTraceChunkWindow(*chunkWindow).
		WithTraceCompression(*traceCompress)
	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir, store.Options{MaxBytes: *cacheMax})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng.WithStore(st)
		fmt.Fprintf(os.Stderr, "mgserve: store %s (%d entries)\n", st.Dir(), st.Len())
	}
	var scrubReport *store.ScrubReport
	if *scrub {
		if st == nil {
			usageExit("-scrub requires -cache-dir")
		}
		rep := st.Scrub()
		scrubReport = &rep
		fmt.Fprintf(os.Stderr, "mgserve: scrub: %d entries and segments scanned, %d corrupt deleted (%d bytes reclaimed), %d errors\n",
			rep.Scanned, rep.Corrupt, rep.BytesReclaimed, rep.Errors)
	}

	var workerURLs []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workerURLs = append(workerURLs, u)
		}
	}
	if *workers != "" && len(workerURLs) == 0 {
		usageExit("-workers was set but contains no worker URLs")
	}
	if (*register == "") != (*advertise == "") {
		usageExit("-register and -advertise must be set together (the coordinator needs a URL to reach this worker back on)")
	}

	handler, err := serve.New(serve.Options{
		Engine:            eng,
		MaxSweepJobs:      *maxSweep,
		MaxBodyBytes:      *maxBody,
		Workers:           workerURLs,
		Coordinator:       *coordinator,
		MemberTTL:         *memberTTL,
		FanoutConcurrency: *fanout,
		WorkerCallTimeout: *workerTimeout,
		RateLimit:         *rateLimit,
		RateBurst:         *rateBurst,
		MaxInflightSweeps: *maxInflight,
		JobQueue:          *jobQueue,
		JobRunners:        *jobRunners,
		Scrub:             scrubReport,
	})
	if err != nil {
		usageExit(err.Error())
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// A service meant to face real traffic must bound how long a client
		// may dribble a request (slowloris). Request bodies are small JSON
		// job specs, so tight read bounds are safe; responses can take
		// minutes of simulation, so WriteTimeout deliberately stays unset —
		// in-flight compute is bounded by request cancellation instead.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(workerURLs) > 0 {
		fmt.Fprintf(os.Stderr, "mgserve: coordinating %d workers: %s\n", len(workerURLs), strings.Join(workerURLs, " "))
	} else if *coordinator {
		fmt.Fprintln(os.Stderr, "mgserve: coordinating (dynamic membership; workers join via /v1/workers/register)")
	}
	if *register != "" {
		// Register with the coordinator and keep heartbeating until
		// shutdown. The loop retries through coordinator restarts, so the
		// worker re-joins a rebooted tier on its own.
		go serve.NewClient(*register).RegisterLoop(ctx, *advertise, *heartbeat, func(err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "mgserve: register with %s: %v\n", *register, err)
			}
		})
		fmt.Fprintf(os.Stderr, "mgserve: registering with %s as %s\n", *register, *advertise)
	}
	fmt.Fprintf(os.Stderr, "mgserve: listening on %s (%d workers)\n", *addr, eng.Workers())
	listenErr := make(chan error, 1)
	go func() { listenErr <- srv.ListenAndServe() }()
	select {
	case err := <-listenErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
		// Drain in-flight requests before exiting (Shutdown blocks until
		// handlers finish or the grace period lapses), then stop the async
		// job runners — interrupted jobs persist as requeueable.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		handler.Close()
		if err := <-listenErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	stats := eng.Stats()
	fmt.Fprintf(os.Stderr, "mgserve: served %d simulations (%d memory hits, %d store hits)\n",
		stats.SimRuns+stats.SimHits, stats.SimHits, stats.StoreHits)
}
