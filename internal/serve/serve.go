// Package serve implements the mgserve HTTP API: the serving layer over
// the shared memoizing simulation engine and the persistent result store.
//
// Synchronous endpoints:
//
//	POST /v1/simulate            one simulation job, JSON JobSpec in,
//	                             JobResult out
//	POST /v1/sweep               a batch of named arms; duplicate and
//	                             concurrent arms coalesce through the
//	                             engine's single-flight cache; the
//	                             response is the structured sim.Report
//	POST /v1/outcome             one JobSpec in, the canonical encoded
//	                             sim.Outcome out (the worker-to-worker
//	                             form the coordinator fans out with)
//	GET  /v1/experiments/{name}  full figure reproduction as Report JSON
//	GET  /healthz                liveness
//	GET  /statsz                 engine + store + job counters
//
// Asynchronous job endpoints (see JobManager):
//
//	POST   /v1/jobs              submit a sweep, returns a job id at once
//	GET    /v1/jobs              list known jobs (without reports)
//	GET    /v1/jobs/{id}         status, per-arm progress, embedded report
//	GET    /v1/jobs/{id}/report  the finished sweep's raw Report JSON,
//	                             byte-identical to POST /v1/sweep
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//
// All simulation work funnels through one sim.Engine, so identical jobs —
// across requests, across endpoints, and across concurrent callers — run
// at most once per process, and at most once ever when a store is
// attached. With Options.Workers set the server instead runs as a
// coordinator: sweep arms are sharded across worker mgserve processes by
// rendezvous hashing on each arm's TraceKey, so every arm lands on the
// worker that already holds its captured trace (see Coordinator).
//
// Every error response carries Content-Type application/json and a
// structured {"error": ...} body — including mux-level 404/405s.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"minigraph/internal/core"
	"minigraph/internal/experiments"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

// DefaultMaxSweepJobs bounds the arms accepted by one sweep request.
const DefaultMaxSweepJobs = 1024

// DefaultMaxBodyBytes caps one request body. Sweep requests are a few KB
// per arm; 8 MiB leaves ample headroom while keeping a garbage POST from
// buffering unbounded bytes.
const DefaultMaxBodyBytes = 8 << 20

// Options configure a server.
type Options struct {
	// Engine is the shared simulation engine (required). Attach a
	// persistent store to it with WithStore before serving; /statsz
	// reports whatever store the engine carries, and async job state
	// persists through the same store.
	Engine *sim.Engine
	// MaxSweepJobs bounds the arms in one sweep request (0 = default).
	MaxSweepJobs int
	// MaxBodyBytes caps one request body; beyond it the request is
	// refused with 413 (0 = DefaultMaxBodyBytes, negative = uncapped).
	MaxBodyBytes int64

	// Workers are base URLs of worker mgserve processes. When non-empty
	// the server runs in coordinator mode: /v1/simulate, /v1/sweep and
	// async jobs shard their arms across the workers by trace-key
	// affinity instead of running on the local engine. /v1/experiments
	// still runs locally.
	Workers []string
	// Coordinator forces coordinator mode even with no static workers —
	// the tier then starts empty and workers join by registering. When
	// false, the server accepts registrations only if Workers is set.
	Coordinator bool
	// MemberTTL is how long a registered worker stays routable after its
	// last heartbeat (0 = DefaultMemberTTL). Static Workers never expire.
	MemberTTL time.Duration
	// FanoutConcurrency bounds the coordinator's in-flight worker calls
	// (0 = 4 × workers).
	FanoutConcurrency int
	// WorkerCallTimeout bounds one coordinator→worker call
	// (0 = DefaultWorkerCallTimeout). A worker that hangs past it counts
	// as failed and its arms re-route.
	WorkerCallTimeout time.Duration

	// RateLimit admits this many requests/second per client (remote IP)
	// to /v1/sweep and /v1/jobs, with RateBurst bucket capacity
	// (0 = 2 × RateLimit). RateLimit 0 disables rate limiting.
	RateLimit float64
	RateBurst float64
	// MaxInflightSweeps bounds concurrently executing synchronous sweeps;
	// beyond it requests shed with 503 + Retry-After
	// (0 = DefaultMaxInflightSweeps, negative = unbounded).
	MaxInflightSweeps int

	// JobQueue bounds queued async jobs (0 = DefaultJobQueue); further
	// submissions are refused with 503. JobRunners is the number of jobs
	// executed concurrently (0 = DefaultJobRunners); each running job
	// still parallelizes internally through the engine or coordinator.
	JobQueue   int
	JobRunners int

	// Chaos, when non-nil, injects seeded faults into the blob-serving
	// path (tests only; see Chaos). Counters appear in /statsz.
	Chaos *Chaos
	// Scrub, when non-nil, is the report of a store scrub pass run at
	// startup (mgserve -scrub); /statsz exposes it.
	Scrub *store.ScrubReport
}

// Server is the mgserve HTTP handler.
type Server struct {
	eng      *sim.Engine
	maxSweep int
	maxBody  int64
	started  time.Time
	mux      *http.ServeMux
	coord    *Coordinator // nil in single-process mode
	adm      *admission
	jobs     *JobManager
	chaos    *Chaos             // nil outside chaos tests
	scrub    *store.ScrubReport // nil unless a startup scrub ran
}

// New builds the handler. Close it when done to stop the async job
// runners. An error means the options cannot produce a working server
// (no engine, or a coordinator configuration that can never route).
func New(o Options) (*Server, error) {
	if o.Engine == nil {
		return nil, fmt.Errorf("serve: Options.Engine is required")
	}
	maxSweep := o.MaxSweepJobs
	if maxSweep <= 0 {
		maxSweep = DefaultMaxSweepJobs
	}
	maxBody := o.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	s := &Server{
		eng:      o.Engine,
		maxSweep: maxSweep,
		maxBody:  maxBody,
		started:  time.Now(),
		mux:      http.NewServeMux(),
		adm:      newAdmission(o.RateLimit, o.RateBurst, o.MaxInflightSweeps),
		chaos:    o.Chaos,
		scrub:    o.Scrub,
	}
	if len(o.Workers) > 0 || o.Coordinator {
		coord, err := NewCoordinator(CoordinatorOptions{
			Workers:           o.Workers,
			AllowDynamic:      o.Coordinator,
			MemberTTL:         o.MemberTTL,
			FanoutConcurrency: o.FanoutConcurrency,
			WorkerCallTimeout: o.WorkerCallTimeout,
		})
		if err != nil {
			return nil, err
		}
		s.coord = coord
	}
	// Workers fetch trace blobs from the peers the coordinator names on
	// each /v1/outcome call instead of re-capturing (see blobs.go).
	o.Engine.WithTraceFetcher(s.fetchTrace)
	s.jobs = newJobManager(s, o.JobQueue, o.JobRunners)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/outcome", s.handleOutcome)
	s.mux.HandleFunc("GET /v1/blobs/{traceKey}", s.handleBlob)
	s.mux.HandleFunc("POST /v1/workers/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	return s, nil
}

// Close stops the async job runners. Running jobs are aborted and left in
// a requeueable persisted state (not marked canceled), so a restarted
// server picks them back up.
func (s *Server) Close() { s.jobs.close() }

// ServeHTTP serves the API. Every handler response passes through a
// json-error rewriter, so even the mux's own plain-text 404/405 paths
// reach the client as structured {"error": ...} JSON.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	jw := &jsonErrorWriter{rw: w}
	s.mux.ServeHTTP(jw, r)
	jw.finish()
}

// runSweep executes resolved jobs either on the local engine or, in
// coordinator mode, sharded across the worker tier. onDone (optional)
// fires as each arm completes, from that arm's goroutine. specs and jobs
// are index-aligned.
//
// How the local engine executes arms sharing a captured trace is its own
// choice (sim.Engine.RunEach): as gangs when its replay is window-bounded
// over a store, on independent cursors otherwise. Reports are
// byte-identical either way and /statsz's gang counters (gangs_formed,
// gang_arms, gang_shared_records, gang_fallback_solo) show which ran. In
// coordinator mode arms reach each worker one at a time through
// /v1/outcome, so nothing gangs there.
func (s *Server) runSweep(ctx context.Context, specs []JobSpec, jobs []sim.SimJob, onDone func(int, *sim.Outcome)) ([]*sim.Outcome, error) {
	if s.coord != nil {
		return s.coord.Run(ctx, specs, jobs, onDone)
	}
	return s.eng.RunEach(ctx, jobs, onDone)
}

// resolveSweep validates a sweep request: bounds, per-arm resolution, and
// arm-name uniqueness (duplicate labels would make the per-arm report rows
// ambiguous, so they are rejected outright naming the offender).
func (s *Server) resolveSweep(req SweepRequest) ([]sim.SimJob, error) {
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("sweep needs at least one job")
	}
	if len(req.Jobs) > s.maxSweep {
		return nil, fmt.Errorf("sweep of %d jobs exceeds the %d-job limit", len(req.Jobs), s.maxSweep)
	}
	jobs := make([]sim.SimJob, len(req.Jobs))
	seen := make(map[string]int, len(req.Jobs))
	for i, js := range req.Jobs {
		job, err := js.Resolve()
		if err != nil {
			return nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
		if prev, dup := seen[js.label()]; dup {
			return nil, fmt.Errorf("jobs[%d]: duplicate arm %q (also jobs[%d]); arm names must be unique within a sweep", i, js.label(), prev)
		}
		seen[js.label()] = i
		jobs[i] = job
	}
	return jobs, nil
}

// JobSpec is the wire form of one simulation job. Machine configurations
// are requested by preset name plus a few overrides rather than by the
// full uarch.Config, so clients stay decoupled from simulator internals.
type JobSpec struct {
	// Arm is the display label echoed into result rows (optional).
	Arm string `json:"arm,omitempty"`
	// Bench is a built-in benchmark name (required).
	Bench string `json:"bench"`
	// Input selects the data set: "train" (default) or "test".
	Input string `json:"input,omitempty"`
	// Baseline simulates the unrewritten binary (no extraction).
	Baseline bool `json:"baseline,omitempty"`
	// Machine is a preset: "baseline" (default for baseline jobs),
	// "minigraph" (integer-memory, default otherwise) or "minigraph-int"
	// (integer-only extraction and machine).
	Machine string `json:"machine,omitempty"`
	// Collapse enables pair-wise collapsing ALU pipelines.
	Collapse bool `json:"collapse,omitempty"`
	// Entries is the MGT size (default 512); MaxSize caps mini-graph size
	// (default 4). Both apply to non-baseline jobs only.
	Entries int `json:"entries,omitempty"`
	MaxSize int `json:"max_size,omitempty"`
	// Compress selects the compressed text layout (§6.2).
	Compress bool `json:"compress,omitempty"`

	// Optional machine overrides (0 = preset value). MemLatency is the DRAM
	// access latency in core cycles; chains built from it may exceed the
	// pipeline's event-wheel page size, which the wheel handles exactly.
	Width       int   `json:"width,omitempty"`
	PhysRegs    int   `json:"phys_regs,omitempty"`
	SchedCycles int   `json:"sched_cycles,omitempty"`
	MemLatency  int   `json:"mem_latency,omitempty"`
	MaxRecords  int64 `json:"max_records,omitempty"`

	// Front-end overrides. Predictor selects the branch predictor kind
	// ("hybrid" default, "tage"); Prefetcher the data prefetcher ("none"
	// default, "delta"). The prefetch sizing fields override the selected
	// prefetcher's defaults (0 = default) and are rejected without one.
	Predictor        string `json:"predictor,omitempty"`
	Prefetcher       string `json:"prefetcher,omitempty"`
	PrefetchEntries  int    `json:"prefetch_entries,omitempty"`
	PrefetchDegree   int    `json:"prefetch_degree,omitempty"`
	PrefetchDistance int    `json:"prefetch_distance,omitempty"`
}

// Resolve validates the spec and builds the engine job.
func (js JobSpec) Resolve() (sim.SimJob, error) {
	var job sim.SimJob
	if js.Bench == "" {
		return job, fmt.Errorf("bench is required")
	}
	if _, ok := workload.ByName(js.Bench); !ok {
		return job, fmt.Errorf("unknown benchmark %q (known: %s)", js.Bench, strings.Join(workload.Names(), " "))
	}
	input := workload.InputTrain
	switch js.Input {
	case "", "train":
	case "test":
		input = workload.InputTest
	default:
		return job, fmt.Errorf("input must be \"train\" or \"test\", got %q", js.Input)
	}

	machine := js.machine()
	var cfg uarch.Config
	intMem := false
	switch machine {
	case "baseline":
		if !js.Baseline {
			return job, fmt.Errorf("machine \"baseline\" has no mini-graph support; set baseline=true or pick \"minigraph\"")
		}
		cfg = uarch.Baseline()
	case "minigraph":
		cfg = uarch.MiniGraph(true)
		intMem = true
	case "minigraph-int":
		cfg = uarch.MiniGraph(false)
	default:
		return job, fmt.Errorf("unknown machine %q (want baseline, minigraph or minigraph-int)", machine)
	}
	cfg.Collapse = js.Collapse
	if js.Width != 0 {
		if js.Width <= 0 {
			return job, fmt.Errorf("width must be positive")
		}
		cfg.FetchWidth, cfg.RenameWidth, cfg.CommitWidth = js.Width, js.Width, js.Width
	}
	if js.PhysRegs != 0 {
		if js.PhysRegs < 65 {
			return job, fmt.Errorf("phys_regs must be at least 65")
		}
		cfg.PhysRegs = js.PhysRegs
	}
	if js.SchedCycles != 0 {
		if js.SchedCycles < 1 || js.SchedCycles > 2 {
			return job, fmt.Errorf("sched_cycles must be 1 or 2")
		}
		cfg.SchedCycles = js.SchedCycles
	}
	if js.MemLatency != 0 {
		if js.MemLatency < 0 {
			return job, fmt.Errorf("mem_latency must be non-negative")
		}
		cfg.MemLatency = js.MemLatency
	}
	if js.MaxRecords < 0 {
		return job, fmt.Errorf("max_records must be non-negative")
	}
	cfg.MaxRecords = js.MaxRecords
	switch js.Predictor {
	case "", bpred.KindHybrid:
		// The presets already carry the hybrid predictor.
	case bpred.KindTAGE:
		cfg.BPred = bpred.TageConfig()
	default:
		return job, fmt.Errorf("unknown predictor %q (known: %s)", js.Predictor, strings.Join(bpred.Kinds(), " "))
	}
	switch js.Prefetcher {
	case "", prefetch.KindNone:
		if js.PrefetchEntries != 0 || js.PrefetchDegree != 0 || js.PrefetchDistance != 0 {
			return job, fmt.Errorf("prefetch sizing overrides require prefetcher %q", prefetch.KindDelta)
		}
	case prefetch.KindDelta:
		pf := prefetch.DefaultDelta()
		if js.PrefetchEntries != 0 {
			pf.Entries = js.PrefetchEntries
		}
		if js.PrefetchDegree != 0 {
			pf.Degree = js.PrefetchDegree
		}
		if js.PrefetchDistance != 0 {
			pf.Distance = js.PrefetchDistance
		}
		if err := pf.Validate(); err != nil {
			return job, err
		}
		cfg.Prefetcher = pf
	default:
		return job, fmt.Errorf("unknown prefetcher %q (known: %s)", js.Prefetcher, strings.Join(prefetch.Kinds(), " "))
	}
	// No stream-window fixup is needed for any accepted override: the live
	// stream derives its rewind window from the machine's own squash depth
	// (Config.EffectiveStreamWindow), and replay sources retain the whole
	// trace.

	job = sim.SimJob{
		Prepare:  sim.PrepareKey{Bench: js.Bench, Input: input},
		Baseline: js.Baseline,
		Config:   cfg,
	}
	if !js.Baseline {
		pol := core.DefaultPolicy()
		pol.AllowMem = intMem
		if js.MaxSize != 0 {
			if js.MaxSize < 2 {
				return job, fmt.Errorf("max_size must be at least 2")
			}
			pol.MaxSize = js.MaxSize
		}
		job.Policy = pol
		job.Entries = js.Entries
		if js.Entries == 0 {
			job.Entries = 512
		} else if js.Entries < 0 {
			return job, fmt.Errorf("entries must be positive")
		}
		job.Compress = js.Compress
	}
	return job, nil
}

// machine resolves the preset name, defaulting by job kind. Resolve and
// label share this so row labels always name the machine that ran.
func (js JobSpec) machine() string {
	if js.Machine != "" {
		return js.Machine
	}
	if js.Baseline {
		return "baseline"
	}
	return "minigraph"
}

// label is the row label for a spec: the explicit arm name or a synthetic
// bench@machine one.
func (js JobSpec) label() string {
	if js.Arm != "" {
		return js.Arm
	}
	return js.Bench + "@" + js.machine()
}

// JobResult is the /v1/simulate response.
type JobResult struct {
	Arm string `json:"arm,omitempty"`
	// Result is the full simulator statistics block.
	Result *uarch.Result `json:"result"`
	IPC    float64       `json:"ipc"`
	// Coverage and Templates describe the extraction (absent for baseline
	// jobs).
	Coverage  float64 `json:"coverage,omitempty"`
	Templates int     `json:"templates,omitempty"`
}

func jobResult(js JobSpec, out *sim.Outcome) JobResult {
	jr := JobResult{Arm: js.Arm, Result: out.Result, IPC: out.Result.IPC()}
	if out.Selection != nil {
		jr.Coverage = out.Selection.Coverage()
		jr.Templates = len(out.Selection.Templates)
	}
	return jr
}

// SweepRequest is the /v1/sweep body: a named batch of arms.
type SweepRequest struct {
	Name  string    `json:"name,omitempty"`
	Title string    `json:"title,omitempty"`
	Jobs  []JobSpec `json:"jobs"`
}

// SweepReport assembles the canonical sweep Report: per arm, the cycles,
// IPC and conditional-mispredict rate of the simulation, the prefetch
// counters when the arm's machine prefetched, plus extraction coverage
// when the job extracted. This is the exact structure /v1/sweep responds
// with, exported so in-process callers can produce byte-identical output.
func SweepReport(req SweepRequest, outs []*sim.Outcome) *sim.Report {
	name := req.Name
	if name == "" {
		name = "sweep"
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("sweep: %d arms", len(req.Jobs))
	}
	rep := sim.NewReport(name, title)
	for i, js := range req.Jobs {
		out := outs[i]
		rep.Add(
			sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "cycles", Value: float64(out.Result.Cycles)},
			sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "ipc", Value: out.Result.IPC()},
			sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "cond_mispredict_rate", Value: out.Result.CondMispredictRate()},
		)
		if out.Result.PrefetchIssued > 0 {
			rep.Add(
				sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "prefetch_issued", Value: float64(out.Result.PrefetchIssued)},
				sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "prefetch_useful", Value: float64(out.Result.PrefetchUseful)},
				sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "prefetch_late", Value: float64(out.Result.PrefetchLate)},
			)
		}
		if out.Selection != nil {
			rep.Add(sim.Row{Bench: js.Bench, Arm: js.label(), Metric: "coverage", Value: out.Selection.Coverage()})
		}
	}
	return rep
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var js JobSpec
	if err := s.decodeBody(w, r, &js); err != nil {
		httpBodyError(w, err)
		return
	}
	job, err := js.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	outs, err := s.runSweep(r.Context(), []JobSpec{js}, []sim.SimJob{job}, nil)
	if err != nil {
		httpAbortOrError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, jobResult(js, outs[0]))
}

// handleOutcome is the worker-facing form of /v1/simulate: it returns the
// full canonical sim.Outcome encoding (result + extraction), which is what
// the coordinator needs to rebuild a merged Report byte-identical to
// single-process execution. Always served by the local engine — a
// coordinator is not a worker.
//
// When the coordinator names blob peers for the arm (the
// X-Minigraph-Blob-Peers header), they ride the context into the engine's
// trace fetcher: a worker that lacks the capture pulls the blob from the
// key's previous owner instead of re-emulating.
func (s *Server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	var js JobSpec
	if err := s.decodeBody(w, r, &js); err != nil {
		httpBodyError(w, err)
		return
	}
	job, err := js.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.eng.Simulate(withBlobPeers(r.Context(), parseBlobPeers(r)), job)
	if err != nil {
		httpAbortOrError(w, r, http.StatusInternalServerError, err)
		return
	}
	data, err := sim.EncodeOutcome(out)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if retry, ok := s.adm.admit(clientKey(r)); !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		httpError(w, http.StatusTooManyRequests, fmt.Errorf("rate limit exceeded; retry after %s seconds", retryAfterSeconds(retry)))
		return
	}
	if !s.adm.beginSweep() {
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity (%d sweeps in flight); retry later or submit via /v1/jobs", s.adm.maxInflight))
		return
	}
	defer s.adm.endSweep()
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		httpBodyError(w, err)
		return
	}
	jobs, err := s.resolveSweep(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	outs, err := s.runSweep(r.Context(), req.Jobs, jobs, nil)
	if err != nil {
		httpAbortOrError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeReport(w, SweepReport(req, outs))
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	known := false
	for _, id := range experiments.IDs() {
		if id == name {
			known = true
			break
		}
	}
	if !known {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(experiments.IDs(), " ")))
		return
	}
	o := experiments.DefaultOptions()
	o.Engine = s.eng
	o.Context = r.Context()
	if bl := r.URL.Query().Get("benchmarks"); bl != "" {
		o.Benchmarks = strings.Split(bl, ",")
	}
	a, err := experiments.Run(name, o)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, experiments.ErrUnknownBenchmark) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	writeReport(w, a.Report)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// RegisterRequest is the POST /v1/workers/register body: the worker's own
// advertised base URL. Re-POSTing is the heartbeat.
type RegisterRequest struct {
	URL string `json:"url"`
}

// RegisterResponse tells the registering worker the membership TTL; it
// should heartbeat well within it (mgserve -register beats at TTL/3).
type RegisterResponse struct {
	URL        string  `json:"url"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// handleRegister admits a worker into (or refreshes it in) the
// coordinator's member table. 409 when this server is not a coordinator
// or dynamic registration is disabled — registration against the wrong
// process is a deployment bug worth a distinct status.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		httpBodyError(w, err)
		return
	}
	if s.coord == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("this server is not a coordinator"))
		return
	}
	url, err := normalizeWorkerURL(req.URL)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ttl, err := s.coord.Register(url)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, RegisterResponse{URL: url, TTLSeconds: ttl.Seconds()})
}

// handleWorkers serves the member table (the same view /statsz embeds).
func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	if s.coord == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("this server is not a coordinator"))
		return
	}
	writeJSON(w, s.coord.Members())
}

// statsResponse is the /statsz body.
type statsResponse struct {
	Mode         string       `json:"mode"` // "single" or "coordinator"
	Engine       sim.Stats    `json:"engine"`
	PipelineSims int64        `json:"pipeline_sims"`
	Store        *store.Stats `json:"store,omitempty"`
	Workers      int          `json:"workers"`
	WorkerURLs   []string     `json:"worker_urls,omitempty"`
	// Members is the coordinator's live member table — static and
	// registered workers with last-heartbeat ages.
	Members   []MemberStatus `json:"members,omitempty"`
	Admission AdmissionStats `json:"admission"`
	Jobs      JobsStats      `json:"jobs"`
	// Chaos counts injected serve-layer faults (present only when a chaos
	// injector is attached); Scrub is the startup scrub pass's report
	// (present only when one ran).
	Chaos *ChaosCounters     `json:"chaos,omitempty"`
	Scrub *store.ScrubReport `json:"scrub,omitempty"`

	UptimeSeconds float64  `json:"uptime_seconds"`
	Experiments   []string `json:"experiments"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	resp := statsResponse{
		Mode:          "single",
		Engine:        st,
		PipelineSims:  st.PipelineSims(),
		Workers:       s.eng.Workers(),
		Admission:     s.adm.stats(),
		Jobs:          s.jobs.stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Experiments:   experiments.IDs(),
	}
	if s.coord != nil {
		resp.Mode = "coordinator"
		resp.WorkerURLs = s.coord.WorkerURLs()
		resp.Members = s.coord.Members()
	}
	if st := s.eng.Store(); st != nil {
		ss := st.Stats()
		resp.Store = &ss
	}
	if s.chaos != nil {
		cc := s.chaos.Counters()
		resp.Chaos = &cc
	}
	resp.Scrub = s.scrub
	writeJSON(w, resp)
}

// decodeBody strictly decodes a JSON request body, capped at
// Options.MaxBodyBytes: a body past the cap surfaces as
// *http.MaxBytesError (rendered as 413 by httpBodyError), and
// MaxBytesReader also closes the connection so the client stops sending.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("request body exceeds the %d-byte limit: %w", mbe.Limit, err)
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeReport writes exactly Report.JSON() (plus a trailing newline), so a
// served report is byte-identical to one produced in-process.
func writeReport(w http.ResponseWriter, rep *sim.Report) {
	data, err := rep.JSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
	_, _ = w.Write([]byte("\n"))
}

// httpBodyError reports a decodeBody failure: 413 when the body tripped
// the size cap, 400 otherwise.
func httpBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// httpAbortOrError reports a compute failure — unless the request's own
// context is done, in which case the client has disconnected and the
// handler returns without writing anything: the aborted work must not leave
// a partial (or pointless) JSON body behind on a connection nobody reads.
func httpAbortOrError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if r.Context().Err() != nil {
		return
	}
	httpError(w, status, err)
}

// jsonErrorWriter rewrites plain-text error responses (the mux's built-in
// 404/405s, any stray http.Error) into the API's structured JSON error
// shape. Success responses and errors already written as JSON pass through
// untouched. Error bodies are buffered (they are one short line), so the
// rewrite never emits a half-converted response.
type jsonErrorWriter struct {
	rw          http.ResponseWriter
	wroteHeader bool
	intercept   bool
	status      int
	buf         bytes.Buffer
}

func (j *jsonErrorWriter) Header() http.Header { return j.rw.Header() }

func (j *jsonErrorWriter) WriteHeader(code int) {
	if j.wroteHeader {
		return
	}
	j.wroteHeader = true
	if code >= 400 && !strings.HasPrefix(j.rw.Header().Get("Content-Type"), "application/json") {
		j.intercept = true
		j.status = code
		return // headers flush in finish, after the body is rewritten
	}
	j.rw.WriteHeader(code)
}

func (j *jsonErrorWriter) Write(p []byte) (int, error) {
	if !j.wroteHeader {
		j.WriteHeader(http.StatusOK)
	}
	if j.intercept {
		j.buf.Write(p)
		return len(p), nil
	}
	return j.rw.Write(p)
}

func (j *jsonErrorWriter) finish() {
	if !j.intercept {
		return
	}
	msg := strings.TrimSpace(j.buf.String())
	if msg == "" {
		msg = http.StatusText(j.status)
	}
	j.rw.Header().Set("Content-Type", "application/json")
	j.rw.WriteHeader(j.status)
	_ = json.NewEncoder(j.rw).Encode(map[string]string{"error": msg})
}
