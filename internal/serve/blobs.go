// Peer trace transfer: captured traces move instead of re-emulating.
//
// The expensive artifact behind every arm is the captured dynamic trace
// (PR 4), portable as a manifest plus chunk frames (trace codec). When
// membership changes re-route an arm to a worker that lacks the capture,
// re-emulating would waste exactly the work the trace layer exists to
// avoid — so the coordinator names the key's previous rendezvous owners
// in an X-Minigraph-Blob-Peers header on the /v1/outcome call, and the
// worker's engine streams the trace from those peers before falling back
// to a fresh capture: first the manifest (GET /v1/blobs/{traceKey}
// ?manifest=1), then each chunk it names (?chunk=N), each request under
// its own time budget. Transfer state survives peer failure — chunks
// already fetched are kept and the next peer supplies only what is
// missing — and damage is rejected per chunk: a bit-flipped or truncated
// chunk frame fails its CRC against the manifest and only that chunk is
// re-sourced, never the whole trace. If no peer set can complete the
// manifest, the worker re-captures; wrong bytes can never replay.
package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"
	"time"

	"minigraph/internal/sim"
	"minigraph/internal/trace"
)

// blobPeersHeader carries the ranked peer worker URLs an outcome call may
// fetch its trace blob from (comma-separated, set by the coordinator);
// blobBudgetHeader carries the per-peer fetch time budget in whole
// milliseconds. HTTP does not propagate the caller's deadline, so the
// coordinator ships the budget explicitly — a worker must never spend
// more of the arm's call timeout on one peer than the coordinator can
// afford before the capture fallback no longer fits.
const (
	blobPeersHeader  = "X-Minigraph-Blob-Peers"
	blobBudgetHeader = "X-Minigraph-Blob-Budget"
)

// maxBlobPeers caps how many previous owners the coordinator names (and a
// worker will try) per arm.
const maxBlobPeers = 3

// blobFetchTimeout bounds one peer transfer request (manifest or chunk)
// when the caller named no budget. Chunks are a few MB on a local
// network; a peer that cannot deliver one within this is treated as
// unusable and the transfer resumes from the next peer.
const blobFetchTimeout = 2 * time.Minute

// blobSources is what an outcome call may fetch its trace blob from.
type blobSources struct {
	peers []string
	// perPeer bounds one peer attempt (0 = blobFetchTimeout).
	perPeer time.Duration
}

// blobPeersCtxKey carries the blob sources through the engine's context
// into the trace fetcher.
type blobPeersCtxKey struct{}

func withBlobPeers(ctx context.Context, src blobSources) context.Context {
	if len(src.peers) == 0 {
		return ctx
	}
	return context.WithValue(ctx, blobPeersCtxKey{}, src)
}

func blobPeers(ctx context.Context) blobSources {
	src, _ := ctx.Value(blobPeersCtxKey{}).(blobSources)
	return src
}

func parseBlobPeers(r *http.Request) blobSources {
	h := r.Header.Get(blobPeersHeader)
	if h == "" {
		return blobSources{}
	}
	var src blobSources
	for _, p := range strings.Split(h, ",") {
		if p, err := normalizeWorkerURL(p); err == nil {
			src.peers = append(src.peers, p)
		}
		if len(src.peers) == maxBlobPeers {
			break
		}
	}
	if ms, err := strconv.Atoi(r.Header.Get(blobBudgetHeader)); err == nil && ms > 0 {
		src.perPeer = time.Duration(ms) * time.Millisecond
	}
	return src
}

// blobPath renders the URL path a trace blob is served under: the
// canonical TraceKey encoding, base64url so the JSON key survives as one
// path segment.
func blobPath(traceKey []byte) string {
	return "/v1/blobs/" + base64.RawURLEncoding.EncodeToString(traceKey)
}

// fetchedChunks is the resumable state of one chunked peer transfer: the
// verified raw chunk payloads collected so far (nil = still missing). It
// doubles as the ChunkSource behind the trace handed to the engine.
type fetchedChunks [][]byte

func (f fetchedChunks) FetchChunk(index int64) ([]byte, error) {
	return f[index], nil
}

// fetchTrace is the sim.Engine trace-fetcher hook: when the request
// context names peer workers, stream the trace from them chunk by chunk
// and return it as the manifest over the fetched chunks, which the engine
// verifies and adopts exactly as it would a store load. (nil, nil) when no
// peer is named or the chunk set cannot be completed — the engine then
// captures locally.
//
// The transfer walks peers in rendezvous order: the first to deliver a
// decodable manifest fixes the chunk plan, then chunks are pulled from
// the current peer until it errors (move on) or the set completes.
// Chunks already fetched and verified are never re-fetched — a peer that
// dies mid-transfer costs only its remaining chunks, which the next peer
// resumes. A damaged chunk (frame CRC, index, or manifest-checksum
// mismatch) is rejected individually and left for the next source.
//
// Every request — manifest or chunk — is bounded by the caller-supplied
// per-request budget (blobFetchTimeout when none): fetching is an
// optimization over re-capturing, and a hung peer must not eat the arm's
// whole call budget — the capture fallback still has to fit before the
// coordinator times the worker out and marks it down.
func (s *Server) fetchTrace(ctx context.Context, key sim.TraceKey) (*trace.Trace, error) {
	src := blobPeers(ctx)
	if len(src.peers) == 0 {
		return nil, nil
	}
	kb, err := sim.EncodeTraceKey(key)
	if err != nil {
		return nil, nil
	}
	per := src.perPeer
	if per <= 0 || per > blobFetchTimeout {
		per = blobFetchTimeout
	}
	bounded := func(fetch func(context.Context) ([]byte, error)) ([]byte, error) {
		fctx, cancel := context.WithTimeout(ctx, per)
		defer cancel()
		return fetch(fctx)
	}

	var m trace.Manifest
	var haveManifest bool
	var chunks fetchedChunks
	damaged := false // saw bytes that failed verification (vs transport-only failure)
	for _, peer := range src.peers {
		if ctx.Err() != nil {
			return nil, nil
		}
		cl := NewClient(peer)
		if !haveManifest {
			data, err := bounded(func(fctx context.Context) ([]byte, error) {
				return cl.TraceManifest(fctx, kb)
			})
			if err != nil || len(data) == 0 {
				continue
			}
			mm, err := trace.DecodeManifest(data)
			if err != nil {
				damaged = true
				continue // damaged manifest: next peer
			}
			m = mm
			haveManifest = true
			chunks = make(fetchedChunks, len(m.Chunks))
		}
		complete := true
		for i := range chunks {
			if chunks[i] != nil {
				continue // fetched earlier: resume, don't re-pull
			}
			data, err := bounded(func(fctx context.Context) ([]byte, error) {
				return cl.TraceChunk(fctx, kb, int64(i))
			})
			if err != nil {
				complete = false
				break // peer unusable: resume remaining chunks from the next
			}
			idx, raw, err := trace.DecodeChunk(data)
			if err != nil || idx != int64(i) ||
				int64(len(raw)) != m.Chunks[i].Rows*trace.RecordBytes ||
				crc32.ChecksumIEEE(raw) != m.Chunks[i].CRC {
				damaged = true
				complete = false
				continue // this chunk is damaged; others may still be good
			}
			chunks[i] = raw
		}
		if haveManifest && complete {
			return trace.FromManifest(m, chunks)
		}
	}
	if damaged {
		// Distinguish "a peer served bytes that failed verification" (the
		// engine counts it as a peer reject) from "no peer had the trace".
		return nil, errors.New("serve: peer trace transfer rejected: damaged manifest or chunk")
	}
	return nil, nil
}

// handleBlob serves GET /v1/blobs/{traceKey} for the base64url canonical
// TraceKey in the path, in two forms: ?manifest=1 returns the trace's
// chunk manifest (trace manifest codec) and ?chunk=N returns chunk N's
// frame (trace chunk codec); a request naming neither is a 400.
// 404 when this worker holds no valid copy of what was asked — per chunk,
// so a peer missing (or holding a damaged copy of) one chunk still serves
// the rest and the asker fills the hole elsewhere. Chaos injection
// applies per request: with chunk streaming, a dropped connection or
// corrupted payload costs the asker one chunk retry, not the transfer.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	raw, err := base64.RawURLEncoding.DecodeString(r.PathValue("traceKey"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad trace key encoding: %w", err))
		return
	}
	key, err := sim.DecodeTraceKey(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad trace key: %w", err))
		return
	}
	var data []byte
	var ok bool
	q := r.URL.Query()
	switch {
	case q.Get("manifest") != "":
		data, ok = s.eng.TraceManifest(key)
	case q.Get("chunk") != "":
		n, err := strconv.ParseInt(q.Get("chunk"), 10, 64)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad chunk index %q", q.Get("chunk")))
			return
		}
		data, ok = s.eng.TraceChunk(key, n)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("a trace is served as ?manifest=1 or ?chunk=N, not whole"))
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("trace blob not resident on this worker"))
		return
	}
	if s.chaos != nil {
		s.chaos.blobDelay()
		if s.chaos.dropBlob() {
			panic(http.ErrAbortHandler) // peer dies mid-transfer
		}
		// A corrupted payload must be caught by the frame CRC on arrival.
		data = s.chaos.corruptBlob(data)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}
