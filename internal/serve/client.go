package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"minigraph/internal/sim"
)

// Client is an HTTP client for one mgserve instance. It speaks both the
// synchronous endpoints (/v1/simulate, /v1/sweep, /v1/outcome) and the
// async job API (/v1/jobs). The coordinator uses one Client per worker;
// the public facade re-exports it for end users.
//
// The zero HTTP field means http.DefaultClient; override it to set
// timeouts or a custom transport. Methods are safe for concurrent use.
type Client struct {
	base string
	// HTTP is the underlying HTTP client (nil = http.DefaultClient).
	HTTP *http.Client
}

// NewClient builds a client for the mgserve instance at base
// (e.g. "http://localhost:8347").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/")}
}

// BaseURL returns the server address the client talks to.
func (c *Client) BaseURL() string { return c.base }

// StatusError is a non-2xx API response: the HTTP status plus the
// server's structured error message.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Msg)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// doRaw performs one API call and returns the raw response body. Non-2xx
// responses decode into a *StatusError.
func (c *Client) doRaw(ctx context.Context, method, path string, body any) ([]byte, error) {
	return c.doRawHeaders(ctx, method, path, body, nil)
}

// doRawHeaders is doRaw plus extra request headers.
func (c *Client) doRawHeaders(ctx context.Context, method, path string, body any, hdr http.Header) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("serve: encode request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: %s %s: read: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, &StatusError{Status: resp.StatusCode, Msg: msg}
	}
	return data, nil
}

// do is doRaw plus JSON-decoding the response into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	data, err := c.doRaw(ctx, method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serve: %s %s: decode response: %w", method, path, err)
	}
	return nil
}

// Health checks the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Simulate runs one job synchronously.
func (c *Client) Simulate(ctx context.Context, js JobSpec) (*JobResult, error) {
	var jr JobResult
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", js, &jr); err != nil {
		return nil, err
	}
	return &jr, nil
}

// Outcome runs one job synchronously and returns the full canonical
// outcome (result + extraction). This is the worker-to-worker form the
// coordinator shards with; its round-trip is byte-exact, so reports
// merged from Outcome calls match single-process execution.
func (c *Client) Outcome(ctx context.Context, js JobSpec) (*sim.Outcome, error) {
	data, err := c.doRaw(ctx, http.MethodPost, "/v1/outcome", js)
	if err != nil {
		return nil, err
	}
	return sim.DecodeOutcome(data)
}

// OutcomeFrom is Outcome plus a ranked list of peer workers the serving
// engine may fetch the job's captured trace blob from, each attempt
// bounded by perPeer (0 = the server's default; see blobs.go). An empty
// peers list is plain Outcome.
func (c *Client) OutcomeFrom(ctx context.Context, js JobSpec, peers []string, perPeer time.Duration) (*sim.Outcome, error) {
	var hdr http.Header
	if len(peers) > 0 {
		hdr = http.Header{blobPeersHeader: []string{strings.Join(peers, ",")}}
		if perPeer > 0 {
			hdr.Set(blobBudgetHeader, strconv.FormatInt(perPeer.Milliseconds(), 10))
		}
	}
	data, err := c.doRawHeaders(ctx, http.MethodPost, "/v1/outcome", js, hdr)
	if err != nil {
		return nil, err
	}
	return sim.DecodeOutcome(data)
}

// TraceManifest fetches the chunk manifest (trace manifest codec) for a
// canonical TraceKey encoding (sim.EncodeTraceKey bytes) from this
// worker's blob endpoint — the first step of a chunked transfer.
func (c *Client) TraceManifest(ctx context.Context, traceKey []byte) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, blobPath(traceKey)+"?manifest=1", nil)
}

// TraceChunk fetches one chunk frame (trace chunk codec) of the trace
// behind a canonical TraceKey encoding. Callers verify the frame against
// the manifest before use.
func (c *Client) TraceChunk(ctx context.Context, traceKey []byte, chunk int64) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, blobPath(traceKey)+"?chunk="+strconv.FormatInt(chunk, 10), nil)
}

// RegisterWorker registers (or heartbeats) selfURL with the coordinator
// this client points at, returning the membership TTL to beat within.
func (c *Client) RegisterWorker(ctx context.Context, selfURL string) (time.Duration, error) {
	var resp RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workers/register", RegisterRequest{URL: selfURL}, &resp); err != nil {
		return 0, err
	}
	return time.Duration(resp.TTLSeconds * float64(time.Second)), nil
}

// RegisterLoop registers selfURL and keeps heartbeating at interval
// (0 = TTL/3 as returned by the coordinator, floor 1s) until ctx is done.
// Registration failures are retried at the same cadence — a coordinator
// restart must not silently drop this worker from the tier. onBeat
// (optional) observes each attempt's error (nil on success).
func (c *Client) RegisterLoop(ctx context.Context, selfURL string, interval time.Duration, onBeat func(error)) {
	for {
		ttl, err := c.RegisterWorker(ctx, selfURL)
		if onBeat != nil {
			onBeat(err)
		}
		wait := interval
		if wait <= 0 {
			wait = ttl / 3
			if wait < time.Second {
				wait = time.Second
			}
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return
		}
	}
}

// SweepJSON runs a sweep synchronously and returns the raw Report JSON —
// byte-identical to SweepReport(req, ...).JSON() plus a trailing newline.
func (c *Client) SweepJSON(ctx context.Context, req SweepRequest) ([]byte, error) {
	return c.doRaw(ctx, http.MethodPost, "/v1/sweep", req)
}

// Sweep runs a sweep synchronously and returns the parsed Report.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*sim.Report, error) {
	var rep sim.Report
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// SubmitJob submits a sweep to the async job API and returns immediately
// with the queued job's status (poll it with Job or WaitJob).
func (c *Client) SubmitJob(ctx context.Context, req SweepRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status (including its report once done).
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists the server's known jobs (without reports).
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var sts []JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// JobReportJSON fetches a finished job's raw Report JSON — byte-identical
// to the synchronous /v1/sweep response for the same request.
func (c *Client) JobReportJSON(ctx context.Context, id string) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/v1/jobs/"+id+"/report", nil)
}

// CancelJob cancels a queued or running job. Canceling a finished job is
// a no-op that returns its terminal status.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob polls a job every poll interval (0 = 500ms) until it reaches a
// terminal state or ctx is done, and returns the final status.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
