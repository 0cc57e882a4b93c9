package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/trace"
)

// blobTestJob is one quick job whose capture splits into several chunks
// under the test geometry.
func blobTestJob(t *testing.T) sim.SimJob {
	t.Helper()
	job, err := fastSpec("base", true).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// eachBlobSource runs f against the two kinds of engine a blob request can
// land on: one holding job's trace in memory ("resident"), and one that
// holds nothing but a store into which another process published the trace
// ("segment") — every manifest and chunk that one serves is a ranged read
// of the trace's segment file, and it must never have to capture.
func eachBlobSource(t *testing.T, job sim.SimJob, f func(t *testing.T, src *sim.Engine)) {
	ctx := context.Background()
	t.Run("resident", func(t *testing.T) {
		src := sim.New(2).WithTraceChunkRecords(256)
		if _, err := src.Simulate(ctx, job); err != nil {
			t.Fatal(err)
		}
		f(t, src)
	})
	t.Run("segment", func(t *testing.T) {
		dir := t.TempDir()
		engine := func() *sim.Engine {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return sim.New(2).WithStore(st).WithTraceChunkRecords(256).WithTraceChunkWindow(2)
		}
		if _, err := engine().Simulate(ctx, job); err != nil {
			t.Fatal(err)
		}
		src := engine()
		f(t, src)
		if st := src.Stats(); st.TraceCaptures != 0 || src.Store().Stats().Hits == 0 {
			t.Errorf("blobs were not served from the stored segment: %+v, store %+v", st, src.Store().Stats())
		}
	})
}

// TestBlobChunkEndpoints exercises the two forms of GET /v1/blobs/{key}
// against a worker whose trace spans several chunks, resident and behind
// the store: the manifest decodes and covers the trace, each chunk frame
// decodes and matches the manifest's CRC, the fetched pieces materialize
// into a trace with the same manifest, and a request naming neither form,
// or a malformed or out-of-range chunk index, is rejected with the right
// status — and costs a stored trace nothing.
func TestBlobChunkEndpoints(t *testing.T) {
	job := blobTestJob(t)
	eachBlobSource(t, job, func(t *testing.T, eng *sim.Engine) { testBlobChunkEndpoints(t, job, eng) })
}

func testBlobChunkEndpoints(t *testing.T, job sim.SimJob, eng *sim.Engine) {
	srv := mustNew(t, Options{Engine: eng})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	tk := job.Key().TraceKey()
	kb, err := sim.EncodeTraceKey(tk)
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + blobPath(kb)

	resp, manifest := getBody(t, base+"?manifest=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ?manifest=1: %d: %s", resp.StatusCode, manifest)
	}
	m, err := trace.DecodeManifest(manifest)
	if err != nil {
		t.Fatalf("served manifest does not decode: %v", err)
	}
	if len(m.Chunks) < 4 {
		t.Fatalf("trace split into %d chunks; the test geometry should give several", len(m.Chunks))
	}

	chunks := make(fetchedChunks, len(m.Chunks))
	for i := range m.Chunks {
		resp, body := getBody(t, base+"?chunk="+strconv.Itoa(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET ?chunk=%d: %d: %s", i, resp.StatusCode, body)
		}
		idx, raw, err := trace.DecodeChunk(body)
		if err != nil {
			t.Fatalf("chunk %d frame does not decode: %v", i, err)
		}
		if idx != int64(i) || crc32.ChecksumIEEE(raw) != m.Chunks[i].CRC {
			t.Fatalf("chunk %d frame disagrees with the manifest", i)
		}
		chunks[i] = raw
	}

	tr, err := trace.FromManifest(m, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Materialize(); err != nil {
		t.Fatalf("fetched chunks do not verify against the fetched manifest: %v", err)
	}
	if !bytes.Equal(trace.EncodeManifest(tr.Manifest()), manifest) {
		t.Error("chunk-by-chunk reassembly does not reproduce the served manifest")
	}

	// The bare path (no form named) is a client error with the JSON error
	// shape, like every other 400.
	for _, q := range []string{"", "?chunk=abc", "?chunk=-1"} {
		resp, body := getBody(t, base+q)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.Errorf("GET %q: %d %s, want 400 with a JSON error", q, resp.StatusCode, body)
		}
	}
	// One past the last chunk is where a stored trace keeps its manifest;
	// neither that nor an index far past the end may be served, or cost the
	// store the segment.
	for _, q := range []string{"?chunk=" + strconv.Itoa(len(m.Chunks)), "?chunk=999"} {
		if resp, _ := getBody(t, base+q); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", q, resp.StatusCode)
		}
	}
	if resp, _ := getBody(t, base+"?chunk=0"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET ?chunk=0 after the 404s: %d", resp.StatusCode)
	}
}

// blobPeer is a handcrafted peer worker serving one trace's manifest and
// chunks with per-chunk behavior overrides, recording which chunks were
// asked for.
type blobPeer struct {
	t        *testing.T
	manifest []byte
	chunk    func(i int64) []byte
	// tamper rewrites the response for one chunk index; nil serves clean.
	tamper map[int64]func(w http.ResponseWriter, frame []byte)

	mu    sync.Mutex
	asked []int64
}

func (p *blobPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case q.Get("manifest") != "":
		_, _ = w.Write(p.manifest)
	case q.Get("chunk") != "":
		i, err := strconv.ParseInt(q.Get("chunk"), 10, 64)
		if err != nil {
			p.t.Errorf("peer got bad chunk query %q", q.Get("chunk"))
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.asked = append(p.asked, i)
		p.mu.Unlock()
		frame := p.chunk(i)
		if tamper := p.tamper[i]; tamper != nil {
			tamper(w, frame)
			return
		}
		_, _ = w.Write(frame)
	default:
		p.t.Errorf("peer got non-chunked blob request %s", r.URL)
		w.WriteHeader(http.StatusNotFound)
	}
}

func (p *blobPeer) askedChunks() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.asked...)
}

// TestBlobFetchResumesAcrossPeers drives fetchTrace against two
// handcrafted peers: the first serves a good manifest but corrupts one
// chunk and dies (500) on a later one; the second serves everything. The
// transfer must keep the chunks the first peer delivered intact — asking
// the second peer only for what is missing — reject the damaged chunk by
// CRC, and hand over a trace whose manifest and every chunk payload are
// byte-identical to the source worker's.
func TestBlobFetchResumesAcrossPeers(t *testing.T) {
	job := blobTestJob(t)
	eachBlobSource(t, job, func(t *testing.T, src *sim.Engine) { testBlobFetchResumesAcrossPeers(t, job, src) })
}

func testBlobFetchResumesAcrossPeers(t *testing.T, job sim.SimJob, src *sim.Engine) {
	ctx := context.Background()
	tk := job.Key().TraceKey()
	manifest, ok := src.TraceManifest(tk)
	if !ok {
		t.Fatal("source engine holds no manifest")
	}
	m, err := trace.DecodeManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Chunks) < 4 {
		t.Fatalf("trace split into %d chunks; the scenario needs several", len(m.Chunks))
	}
	chunkFrame := func(i int64) []byte {
		frame, ok := src.TraceChunk(tk, i)
		if !ok {
			t.Fatalf("source engine holds no chunk %d", i)
		}
		return frame
	}

	dieAt := int64(len(m.Chunks) - 1)
	flaky := &blobPeer{t: t, manifest: manifest, chunk: chunkFrame, tamper: map[int64]func(http.ResponseWriter, []byte){
		// Chunk 0 arrives bit-flipped: the frame CRC must reject exactly it.
		0: func(w http.ResponseWriter, frame []byte) {
			bad := append([]byte(nil), frame...)
			bad[len(bad)-1] ^= 0x40
			_, _ = w.Write(bad)
		},
		// The peer dies on the last chunk: a transport error, so the
		// transfer moves to the next peer.
		dieAt: func(w http.ResponseWriter, _ []byte) {
			w.WriteHeader(http.StatusInternalServerError)
		},
	}}
	good := &blobPeer{t: t, manifest: manifest, chunk: chunkFrame}
	p1 := httptest.NewServer(flaky)
	p2 := httptest.NewServer(good)
	t.Cleanup(func() { p1.Close(); p2.Close() })

	fetcher := mustNew(t, Options{Engine: sim.New(1)})
	t.Cleanup(fetcher.Close)
	fctx := withBlobPeers(ctx, blobSources{peers: []string{p1.URL, p2.URL}})
	tr, err := fetcher.fetchTrace(fctx, tk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Materialize(); err != nil {
		t.Fatalf("fetched trace does not verify: %v", err)
	}
	if !bytes.Equal(trace.EncodeManifest(tr.Manifest()), manifest) {
		t.Fatal("fetched trace's manifest differs from the source worker's")
	}
	for i := range m.Chunks {
		_, want, err := trace.DecodeChunk(chunkFrame(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tr.ChunkPayload(int64(i)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fetched chunk %d differs from the source worker's (%v)", i, err)
		}
	}

	// The first peer was asked for everything once; the second only for
	// the holes — the damaged chunk 0 and everything from the death
	// onward, never the chunks already fetched and verified.
	if got := flaky.askedChunks(); int64(len(got)) != dieAt+1 {
		t.Errorf("flaky peer was asked %v, want chunks 0..%d once each", got, dieAt)
	}
	var wantResume []int64
	wantResume = append(wantResume, 0)
	for i := dieAt; i < int64(len(m.Chunks)); i++ {
		wantResume = append(wantResume, i)
	}
	gotResume := good.askedChunks()
	if fmt.Sprint(gotResume) != fmt.Sprint(wantResume) {
		t.Errorf("resume peer was asked %v, want exactly the holes %v", gotResume, wantResume)
	}
}

// TestBlobFetchAllPeersDamaged: when every peer serves damaged bytes the
// fetch must fail loudly (the engine counts a peer reject) instead of
// silently reporting "no peer had it".
func TestBlobFetchAllPeersDamaged(t *testing.T) {
	job := blobTestJob(t)
	eachBlobSource(t, job, func(t *testing.T, src *sim.Engine) { testBlobFetchAllPeersDamaged(t, job, src) })
}

func testBlobFetchAllPeersDamaged(t *testing.T, job sim.SimJob, src *sim.Engine) {
	ctx := context.Background()
	tk := job.Key().TraceKey()
	manifest, _ := src.TraceManifest(tk)
	corruptAll := func(w http.ResponseWriter, frame []byte) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0x40
		_, _ = w.Write(bad)
	}
	peer := &blobPeer{t: t, manifest: manifest, tamper: map[int64]func(http.ResponseWriter, []byte){}, chunk: func(i int64) []byte {
		frame, _ := src.TraceChunk(tk, i)
		return frame
	}}
	m, err := trace.DecodeManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		peer.tamper[int64(i)] = corruptAll
	}
	p := httptest.NewServer(peer)
	t.Cleanup(p.Close)

	fetcher := mustNew(t, Options{Engine: sim.New(1)})
	t.Cleanup(fetcher.Close)
	fctx := withBlobPeers(ctx, blobSources{peers: []string{p.URL}})
	tr, err := fetcher.fetchTrace(fctx, tk)
	if err == nil || tr != nil {
		t.Fatalf("fetch over all-damaged chunks returned trace=%v, err=%v; want a rejection", tr != nil, err)
	}
}
