package sim

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"minigraph/internal/trace"
)

// payloads is the ChunkSource a fetcher hands over: raw chunk payloads it
// collected, trusted by nobody.
type payloads [][]byte

func (p payloads) FetchChunk(i int64) ([]byte, error) { return p[i], nil }

// offerFrom collects key's trace from src the way a peer transfer does —
// manifest, then every chunk frame — and returns the pieces a fetcher
// builds its trace from.
func offerFrom(t *testing.T, src *Engine, key TraceKey) (trace.Manifest, payloads) {
	t.Helper()
	data, ok := src.TraceManifest(key)
	if !ok {
		t.Fatal("source engine cannot serve its own trace manifest")
	}
	m, err := trace.DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	chunks := make(payloads, len(m.Chunks))
	for i := range chunks {
		frame, ok := src.TraceChunk(key, int64(i))
		if !ok {
			t.Fatalf("source engine cannot serve chunk %d", i)
		}
		if _, chunks[i], err = trace.DecodeChunk(frame); err != nil {
			t.Fatal(err)
		}
	}
	return m, chunks
}

// fetcherOf is a trace fetcher serving one fixed offer and counting calls.
func fetcherOf(m trace.Manifest, chunks payloads, calls *atomic.Int64) func(context.Context, TraceKey) (*trace.Trace, error) {
	return func(context.Context, TraceKey) (*trace.Trace, error) {
		calls.Add(1)
		return trace.FromManifest(m, chunks)
	}
}

func outcomeBytes(t *testing.T, e *Engine, job SimJob) []byte {
	t.Helper()
	out, err := e.Simulate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceFetcherAdoptsPeerBlob: an engine whose trace fetcher serves
// another engine's trace replays it without ever capturing; a trace with
// one chunk that fails its manifest CRC (or comes up short) is rejected
// whole and falls back to capture; a fetcher with no source is a silent
// no-op; and with a store and a bounded chunk window the adopted trace
// lands in the store chunked and is held spilled. In every case the
// outcome bytes are identical.
func TestTraceFetcherAdoptsPeerBlob(t *testing.T) {
	job := baselineTestJob()
	job.Config.MaxRecords = 3000
	tk := job.Key().TraceKey()

	src := New(2).WithTraceChunkRecords(testChunkRecords)
	want := outcomeBytes(t, src, job)
	m, chunks := offerFrom(t, src, tk)
	if len(chunks) < 4 {
		t.Fatalf("source trace has %d chunks, want several", len(chunks))
	}
	if _, ok := src.TraceManifest(TraceKey{}); ok {
		t.Fatal("manifest served for a trace that was never captured")
	}

	var fetched atomic.Int64
	serve := fetcherOf(m, chunks, &fetched)
	peer := New(2).WithTraceFetcher(func(ctx context.Context, key TraceKey) (*trace.Trace, error) {
		if key != tk {
			return nil, fmt.Errorf("asked for unexpected key %+v", key)
		}
		return serve(ctx, key)
	})
	if !bytes.Equal(outcomeBytes(t, peer, job), want) {
		t.Fatal("outcome replayed from a fetched trace differs from the source engine's")
	}
	if n := fetched.Load(); n != 1 {
		t.Errorf("fetcher called %d times, want 1", n)
	}
	st := peer.Stats()
	if st.TraceCaptures != 0 || st.TracePeerHits != 1 || st.TracePeerRejects != 0 {
		t.Errorf("adopting engine captured anyway: %+v", st)
	}

	// One bad chunk — a flipped bit or a short payload — must fail the
	// manifest check and degrade to a re-capture, never to a wrong (or
	// partial) replay.
	last := len(chunks) - 1
	flipped := append([]byte(nil), chunks[last]...)
	flipped[len(flipped)-1] ^= 0xff
	for name, bad := range map[string][]byte{"bit flip": flipped, "short chunk": chunks[last][:len(chunks[last])-trace.RecordBytes]} {
		offer := append(payloads(nil), chunks...)
		offer[last] = bad
		damaged := New(2).WithTraceFetcher(fetcherOf(m, offer, new(atomic.Int64)))
		if !bytes.Equal(outcomeBytes(t, damaged, job), want) {
			t.Fatalf("%s: outcome after damaged-trace fallback differs", name)
		}
		st = damaged.Stats()
		if st.TracePeerRejects != 1 || st.TracePeerHits != 0 || st.TraceCaptures != 1 {
			t.Errorf("%s: damaged trace not rejected into a re-capture: %+v", name, st)
		}
	}

	// (nil, nil) means "no source": not a hit, not a reject, plain capture.
	none := New(2).WithTraceFetcher(func(context.Context, TraceKey) (*trace.Trace, error) {
		return nil, nil
	})
	outcomeBytes(t, none, job)
	st = none.Stats()
	if st.TracePeerHits != 0 || st.TracePeerRejects != 0 || st.TraceCaptures != 1 {
		t.Errorf("sourceless fetcher perturbed counters: %+v", st)
	}

	// Store + bounded window: the adopted trace is written through as one
	// segment, every chunk then the manifest, and held spilled, so a transfer never breaks
	// the residency bound...
	dir := t.TempDir()
	fetched.Store(0)
	bounded := chunkedEngine(t, dir).WithTraceFetcher(fetcherOf(m, chunks, &fetched))
	if !bytes.Equal(outcomeBytes(t, bounded, job), want) {
		t.Fatal("outcome replayed from a fetched, spilled trace differs")
	}
	st = bounded.Stats()
	if st.TraceCaptures != 0 || st.TracePeerHits != 1 || fetched.Load() != 1 {
		t.Errorf("bounded engine did not adopt the peer trace: %+v", st)
	}
	if st.TraceResidentBytes*4 > st.TraceBytes {
		t.Errorf("adopted trace held resident: %d of %d bytes", st.TraceResidentBytes, st.TraceBytes)
	}
	disk := openStore(t, dir)
	kb, err := EncodeTraceKey(tk)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := disk.GetRecord(kb, -1, kb); !ok || !bytes.Equal(data, trace.EncodeManifest(m)) {
		t.Error("store does not hold the adopted trace's manifest")
	}
	for i := range chunks {
		ck, err := EncodeTraceChunkKey(tk, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := disk.GetRecord(kb, i, ck); !ok {
			t.Errorf("store does not hold adopted chunk %d", i)
		}
	}
	if disk.Len() != 2 {
		t.Errorf("an adopted trace and one outcome are %d store files, want 2", disk.Len())
	}

	// ...and a cold engine on that store replays a new arm over the same
	// trace from disk: no capture, no fetch.
	arm := job
	arm.Config.MemLatency += 40 // same TraceKey, distinct outcome key
	fetched.Store(0)
	cold := chunkedEngine(t, dir).WithTraceFetcher(fetcherOf(m, chunks, &fetched))
	if !bytes.Equal(outcomeBytes(t, cold, arm), outcomeBytes(t, src, arm)) {
		t.Fatal("cold engine's replay of the adopted trace differs")
	}
	st = cold.Stats()
	if st.TraceCaptures != 0 || st.TraceStoreHits != 1 || fetched.Load() != 0 {
		t.Errorf("cold engine did not replay from the store alone (%d fetches): %+v", fetched.Load(), st)
	}
}
