package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"minigraph/internal/sim"
	"minigraph/internal/store"
)

// newJobServer builds a serve.Server (engine workers as given, store
// rooted at dir when non-empty) plus an httptest front end and a client.
// The returned stop function shuts both down; tests that simulate a
// restart call it explicitly and build a second server over the same dir.
func newJobServer(t *testing.T, dir string, engineWorkers int, o Options) (*Client, func()) {
	t.Helper()
	eng := sim.New(engineWorkers)
	if dir != "" {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng.WithStore(st)
	}
	o.Engine = eng
	srv := mustNew(t, o)
	ts := httptest.NewServer(srv)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		srv.Close()
	}
	t.Cleanup(stop)
	return NewClient(ts.URL), stop
}

func fastSweep(name string) SweepRequest {
	return SweepRequest{
		Name:  name,
		Title: "async " + name,
		Jobs: []JobSpec{
			fastSpec("sha/base", true),
			fastSpec("sha/mg", false),
			{Arm: "adpcm/base", Bench: "adpcm.enc", Baseline: true, Machine: "baseline", MaxRecords: 3000},
		},
	}
}

func TestJobLifecycle(t *testing.T) {
	c, _ := newJobServer(t, "", 2, Options{})
	ctx := context.Background()
	req := fastSweep("life")

	// The synchronous endpoint is the byte-exactness reference.
	want, err := c.SweepJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Submission returns 202 and a queued/running status immediately.
	resp, out := postJSON(t, c.BaseURL()+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != JobQueued || st.Total != 3 {
		t.Fatalf("submit response %+v", st)
	}

	fin, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fin.Completed != 3 || fin.FinishedUnix == 0 || fin.Error != "" {
		t.Fatalf("final status %+v", fin)
	}
	if fin.Report == nil || fin.Report.Name != "life" {
		t.Fatalf("status report %+v", fin.Report)
	}

	// The raw report endpoint is byte-identical to the sync sweep.
	got, err := c.JobReportJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("async report differs from sync sweep\nasync:\n%s\nsync:\n%s", got, want)
	}

	// Listing shows the job without embedding the report.
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].Report != nil {
		t.Fatalf("list %+v", list)
	}

	// Cancel after completion is an idempotent no-op.
	if st2, err := c.CancelJob(ctx, st.ID); err != nil || st2.State != JobDone {
		t.Fatalf("cancel-after-done: %+v, %v", st2, err)
	}

	// Unknown ids 404 through both endpoints.
	var se *StatusError
	if _, err := c.Job(ctx, "j-missing"); !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Errorf("unknown job: %v", err)
	}
	if _, err := c.JobReportJSON(ctx, "j-missing"); !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Errorf("unknown report: %v", err)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	c, _ := newJobServer(t, "", 2, Options{})
	cases := []SweepRequest{
		{},                                    // no jobs
		{Jobs: []JobSpec{{Bench: "no-such"}}}, // bad bench
		{Jobs: []JobSpec{fastSpec("x", true), fastSpec("x", false)}}, // dup arm
	}
	for i, req := range cases {
		resp, out := postJSON(t, c.BaseURL()+"/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d body %s", i, resp.StatusCode, out)
		}
	}
}

// TestJobCancelRunning: DELETE on a running job cancels its context; the
// job lands in canceled with partial progress, and its report endpoint
// answers 409.
func TestJobCancelRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run sweep; skipped in -short")
	}
	c, _ := newJobServer(t, "", 1, Options{})
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, slowSweep(16))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, st.ID, JobRunning)
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobCanceled {
		t.Fatalf("state %q after cancel", fin.State)
	}
	if fin.Completed >= fin.Total {
		t.Errorf("canceled job claims %d/%d arms", fin.Completed, fin.Total)
	}
	var se *StatusError
	if _, err := c.JobReportJSON(ctx, st.ID); !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Errorf("report of canceled job: %v", err)
	}
}

// TestJobQueueBounded: the run queue applies back-pressure — beyond its
// capacity, submissions fail fast with 503 instead of growing an
// unbounded backlog.
func TestJobQueueBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run sweeps; skipped in -short")
	}
	c, _ := newJobServer(t, "", 1, Options{JobQueue: 1, JobRunners: 1})
	ctx := context.Background()
	var full bool
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := c.SubmitJob(ctx, slowSweep(16))
		if err != nil {
			var se *StatusError
			if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
				t.Fatalf("submit %d: %v", i, err)
			}
			full = true
			continue
		}
		ids = append(ids, st.ID)
	}
	if !full {
		t.Error("queue of 1 absorbed 4 jobs without back-pressure")
	}
	for _, id := range ids {
		if _, err := c.CancelJob(ctx, id); err != nil {
			t.Error(err)
		}
	}
}

func waitForState(t *testing.T, c *Client, id string, want JobState) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s reached %q while waiting for %q", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobPersistsAcrossRestart is the durability acceptance test: a job
// submitted before a server restart is observable after it — a finished
// job keeps its (byte-identical) report, and an interrupted job is
// requeued and re-run rather than silently lost.
func TestJobPersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run sweeps; skipped in -short")
	}
	dir := t.TempDir()
	ctx := context.Background()

	// Server 1: run a job to completion, then "crash".
	c1, stop1 := newJobServer(t, dir, 1, Options{})
	req := fastSweep("durable")
	st, err := c1.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.WaitJob(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	doneReport, err := c1.JobReportJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	stop1()

	// Server 2: the finished job survived with its report intact. Then
	// start a long job and shut down while it runs.
	c2, stop2 := newJobServer(t, dir, 1, Options{})
	got, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("finished job lost across restart: %v", err)
	}
	if got.State != JobDone || got.Requeues != 0 {
		t.Fatalf("restarted status %+v", got)
	}
	if rep, err := c2.JobReportJSON(ctx, st.ID); err != nil || !bytes.Equal(rep, doneReport) {
		t.Fatalf("restarted report differs: %v\n%s", err, rep)
	}

	slow := slowSweep(16)
	// One shared record cap bounds the run (server 3 re-runs all 16 arms)
	// and leaves the arms on one trace.
	for i := range slow.Jobs {
		slow.Jobs[i].MaxRecords = 4_000_000
	}
	st2, err := c2.SubmitJob(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	running := waitForState(t, c2, st2.ID, JobRunning)
	for running.Completed == 0 {
		time.Sleep(10 * time.Millisecond)
		if running, err = c2.Job(ctx, st2.ID); err != nil {
			t.Fatal(err)
		}
		if running.State.Terminal() {
			t.Fatalf("slow job finished too fast to interrupt: %+v", running)
		}
	}
	if running.Completed >= running.Total {
		t.Fatalf("no partial-progress window: job went 0 -> %d of %d between polls", running.Completed, running.Total)
	}
	stop2() // mid-sweep shutdown: the job must persist as requeueable

	// Server 3: the interrupted job is re-adopted, re-run, and completes
	// with a report byte-identical to the synchronous sweep.
	c3, _ := newJobServer(t, dir, 1, Options{})
	adopted, err := c3.Job(ctx, st2.ID)
	if err != nil {
		t.Fatalf("interrupted job lost across restart: %v", err)
	}
	if adopted.State.Terminal() && adopted.State != JobDone {
		t.Fatalf("adopted state %+v", adopted)
	}
	if adopted.Requeues != 1 {
		t.Errorf("requeues %d, want 1", adopted.Requeues)
	}
	fin, err := c3.WaitJob(ctx, st2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fin.Completed != fin.Total {
		t.Fatalf("requeued job final status %+v", fin)
	}
	want, err := c3.SweepJSON(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := c3.JobReportJSON(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRep, want) {
		t.Fatalf("requeued report differs from sync sweep\nasync:\n%s\nsync:\n%s", gotRep, want)
	}
}

// TestJobPruneDeletesPersistedRecords: beyond maxTrackedJobs the oldest
// finished jobs are forgotten everywhere — memory, index, and their
// persisted records — so pruned reports do not leak into the store.
func TestJobPruneDeletesPersistedRecords(t *testing.T) {
	old := maxTrackedJobs
	maxTrackedJobs = 2
	defer func() { maxTrackedJobs = old }()

	dir := t.TempDir()
	c, _ := newJobServer(t, dir, 2, Options{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.SubmitJob(ctx, fastSweep(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitJob(ctx, st.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// The third submission pruned the first (finished) job.
	var se *StatusError
	if _, err := c.Job(ctx, ids[0]); !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Errorf("pruned job still served: %v", err)
	}
	if _, err := c.Job(ctx, ids[2]); err != nil {
		t.Errorf("latest job lost: %v", err)
	}

	// A fresh store handle sees neither the record nor the index entry.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadJobRecord(st2, ids[0]); ok {
		t.Error("pruned job's persisted record still in the store")
	}
	idx := loadJobIndex(st2)
	for _, id := range idx {
		if id == ids[0] {
			t.Errorf("pruned id still indexed: %v", idx)
		}
	}
	if len(idx) != 2 {
		t.Errorf("index %v, want the 2 surviving ids", idx)
	}
}

// TestJobCancelQueuedFreesSlot: DELETE on a queued job releases its queue
// slot immediately — back-pressure reflects jobs actually waiting, not
// canceled husks.
func TestJobCancelQueuedFreesSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run sweeps; skipped in -short")
	}
	c, _ := newJobServer(t, "", 1, Options{JobQueue: 1, JobRunners: 1})
	ctx := context.Background()
	a, err := c.SubmitJob(ctx, slowSweep(16)) // occupies the runner
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, a.ID, JobRunning)
	b, err := c.SubmitJob(ctx, fastSweep("b")) // fills the 1-slot queue
	if err != nil {
		t.Fatal(err)
	}
	var se *StatusError
	if _, err := c.SubmitJob(ctx, fastSweep("c")); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("overfull queue accepted a job: %v", err)
	}
	if st, err := c.CancelJob(ctx, b.ID); err != nil || st.State != JobCanceled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	d, err := c.SubmitJob(ctx, fastSweep("d"))
	if err != nil {
		t.Fatalf("slot not freed by canceling a queued job: %v", err)
	}
	for _, id := range []string{a.ID, d.ID} {
		if _, err := c.CancelJob(ctx, id); err != nil {
			t.Error(err)
		}
	}
}

// flippableWorker aborts every connection until revived, then serves as a
// normal worker — a worker process that is down during a tier restart and
// comes back.
type flippableWorker struct {
	srv *Server
	up  atomic.Bool
}

func (f *flippableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.up.Load() {
		panic(http.ErrAbortHandler)
	}
	f.srv.ServeHTTP(w, r)
}

// TestJobRetriesWhileWorkersDown: a job whose arms find no worker
// answering is requeued with a delay instead of failing terminally, and
// completes once the tier comes back.
func TestJobRetriesWhileWorkersDown(t *testing.T) {
	oldBase, oldMax := jobRetryBase, jobRetryMaxDelay
	jobRetryBase, jobRetryMaxDelay = 10*time.Millisecond, 100*time.Millisecond
	defer func() { jobRetryBase, jobRetryMaxDelay = oldBase, oldMax }()

	wsrv := mustNew(t, Options{Engine: sim.New(2)})
	fw := &flippableWorker{srv: wsrv}
	wts := httptest.NewServer(fw)
	t.Cleanup(func() {
		wts.Close()
		wsrv.Close()
	})

	csrv := mustNew(t, Options{Engine: sim.New(2), Workers: []string{wts.URL}})
	cts := httptest.NewServer(csrv)
	t.Cleanup(func() {
		cts.Close()
		csrv.Close()
	})
	c := NewClient(cts.URL)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, fastSweep("tier-restart"))
	if err != nil {
		t.Fatal(err)
	}
	// Let it fail against the dead tier at least once, then revive.
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == JobFailed {
			t.Fatalf("job failed terminally during tier outage: %+v", got)
		}
		if got.Retries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never retried: %+v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fw.up.Store(true)
	fin, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fin.Retries < 1 {
		t.Fatalf("final status %+v", fin)
	}
}

// TestJobRetryBackoffGrowth pins the retry pacing: deterministic doubling
// from jobRetryBase capped at jobRetryMaxDelay, and — end to end — the
// jittered per-job delays recorded against a dead tier strictly grow.
func TestJobRetryBackoffGrowth(t *testing.T) {
	for retry, want := range map[int]time.Duration{
		1:  500 * time.Millisecond,
		2:  time.Second,
		3:  2 * time.Second,
		6:  16 * time.Second,
		7:  30 * time.Second, // 32s capped
		50: 30 * time.Second,
	} {
		if got := jobRetryBackoff(retry); got != want {
			t.Errorf("jobRetryBackoff(%d) = %s, want %s", retry, got, want)
		}
	}

	oldBase, oldMax, oldRetries := jobRetryBase, jobRetryMaxDelay, maxJobRetries
	jobRetryBase, jobRetryMaxDelay, maxJobRetries = 10*time.Millisecond, 10*time.Second, 3
	defer func() { jobRetryBase, jobRetryMaxDelay, maxJobRetries = oldBase, oldMax, oldRetries }()

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here any more
	csrv := mustNew(t, Options{Engine: sim.New(2), Workers: []string{dead.URL}})
	cts := httptest.NewServer(csrv)
	t.Cleanup(func() {
		cts.Close()
		csrv.Close()
	})
	c := NewClient(cts.URL)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, fastSweep("backoff"))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobFailed || fin.Retries != 3 {
		t.Fatalf("job against a dead tier: %+v", fin)
	}

	csrv.jobs.mu.Lock()
	delays := append([]time.Duration(nil), csrv.jobs.jobs[st.ID].retryDelays...)
	csrv.jobs.mu.Unlock()
	if len(delays) != 3 {
		t.Fatalf("recorded %d retry delays, want 3: %v", len(delays), delays)
	}
	for i, d := range delays {
		base := jobRetryBackoff(i + 1)
		if d < base || d > base+base/2 {
			t.Errorf("retry %d delay %s outside [%s, %s]", i+1, d, base, base+base/2)
		}
		if i > 0 && d <= delays[i-1] {
			t.Errorf("retry delays not growing: %v", delays)
		}
	}
}
