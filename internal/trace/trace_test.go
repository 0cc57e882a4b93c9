package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"minigraph"
	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// rewritten builds the mini-graph variant of a workload benchmark the same
// way the engine does, so the trace covers handle records too. The
// templates come back alongside the table because an MGT memoizes
// schedules lazily and is therefore per-pipeline state: concurrent
// simulations each build their own from the shared immutable templates.
func rewritten(t testing.TB, bench string) (*isa.Program, *core.MGT, []*core.Template) {
	t.Helper()
	wl, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	prog := wl.Build(workload.InputTrain)
	prof, err := minigraph.ProfileOf(prog, minigraph.ProfileLimit)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
	if err != nil {
		t.Fatal(err)
	}
	return rw.Prog, rw.MGT, rw.Selection.Templates
}

// TestReaderMatchesStream drives the live stream and a trace reader in
// lockstep — including rewinds deeper than any live window would need —
// and demands identical records.
func TestReaderMatchesStream(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	const limit = 20_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != limit {
		t.Fatalf("trace length %d, want %d", tr.Len(), limit)
	}

	s := emu.NewStream(emu.NewMachine(prog, mgt), 4096, limit)
	r := trace.NewReader(tr, prog, limit)
	var rr emu.Record
	step := 0
	for {
		sr, sok := s.Next()
		rok := r.NextInto(&rr)
		if sok != rok {
			t.Fatalf("step %d: stream ok=%v reader ok=%v", step, sok, rok)
		}
		if !sok {
			break
		}
		if !reflect.DeepEqual(*sr, rr) {
			t.Fatalf("step %d: record mismatch\nstream: %+v\nreplay: %+v", step, *sr, rr)
		}
		step++
		// Periodic rewinds exercise the squash path; every 4096 records jump
		// back a stride the live window can still cover so both sides can
		// replay it.
		if step%4096 == 0 {
			seq := sr.Seq - 100
			s.Rewind(seq)
			r.Rewind(seq)
		}
	}
	if (s.Err() == nil) != (r.Err() == nil) {
		t.Fatalf("err mismatch: stream %v reader %v", s.Err(), r.Err())
	}
	if !s.Exhausted() || !r.Exhausted() {
		t.Fatal("both sources should be exhausted")
	}
}

// TestReaderDeepRewind: a replay cursor rewinds to record zero no matter
// how far it has advanced — there is no retention window to fall out of.
func TestReaderDeepRewind(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.Capture(context.Background(), prog, mgt, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewReader(tr, prog, 0)
	var first, rec emu.Record
	for i := 0; i < 10_000; i++ {
		if !r.NextInto(&rec) {
			t.Fatalf("exhausted at %d", i)
		}
		if i == 0 {
			first = rec
		}
	}
	r.Rewind(0)
	ok := r.NextInto(&rec)
	if !ok || !reflect.DeepEqual(rec, first) {
		t.Fatalf("deep rewind did not re-serve record 0 (ok=%v)", ok)
	}
}

// TestPipelineReplayIdentical is the golden-invariance rule at the unit
// level: one benchmark simulated via the live stream and via trace replay
// must produce identical statistics on multiple machine configurations
// sharing the one capture.
func TestPipelineReplayIdentical(t *testing.T) {
	prog, mgt, templates := rewritten(t, "adpcm.enc")
	tr, err := trace.Capture(context.Background(), prog, mgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halted() {
		t.Fatal("benchmark did not halt during capture")
	}
	// Three arms sharing the one capture: the paper machine, a DRAM-latency
	// variant, and a collapsing-AP variant (whose MGT schedules differ —
	// only the *functional* stream is shared, so each arm builds its own
	// table under its own exec parameters).
	configs := []uarch.Config{uarch.MiniGraph(true), uarch.MiniGraph(true), uarch.MiniGraph(true)}
	configs[1].MemLatency = 140
	configs[2].Collapse = true
	for _, cfg := range configs {
		params := core.ExecParams{LoadLat: cfg.LoadLat, Collapse: cfg.Collapse, UseAP: cfg.APs > 0}
		live, err := uarch.New(cfg, prog, core.NewMGT(templates, params)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rd := trace.NewReader(tr, prog, cfg.MaxRecords)
		replay, err := uarch.NewWithSource(cfg, core.NewMGT(templates, params), rd).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replay) {
			t.Errorf("%s: live and replay results diverge (Collapse=%v MemLatency=%d)", cfg.Name, cfg.Collapse, cfg.MemLatency)
		}
	}
}

// TestConcurrentReaders replays one shared trace through 8 concurrent
// pipelines (each with a private cursor) under the race detector and
// checks every result is identical to a sequential run.
func TestConcurrentReaders(t *testing.T) {
	prog, mgt, templates := rewritten(t, "sha")
	const limit = 60_000
	tr, err := trace.Capture(context.Background(), prog, mgt, limit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.MiniGraph(true)
	cfg.MaxRecords = limit
	want, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, prog, limit)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	results := make([]*uarch.Result, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := core.NewMGT(templates, core.DefaultExecParams())
			results[i], errs[i] = uarch.NewWithSource(cfg, own, trace.NewReader(tr, prog, limit)).Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("reader %d diverged from the sequential result", i)
		}
	}
}

// TestCaptureLimitSemantics pins the cut-off contract shared with
// emu.Stream: the emulator is never stepped once limit records exist.
func TestCaptureLimitSemantics(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.Capture(context.Background(), prog, mgt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 || tr.Halted() || tr.Err() != nil {
		t.Fatalf("limit capture: len=%d halted=%v err=%v", tr.Len(), tr.Halted(), tr.Err())
	}
	// A reader bounded at or below the trace length never observes a
	// fault, even on a truncated trace.
	r := trace.NewReader(tr, prog, 500)
	if r.Err() != nil {
		t.Fatalf("reader err %v, want nil", r.Err())
	}
}

// discardSink accepts every chunk and keeps nothing.
type discardSink struct{}

func (discardSink) SealChunk(int64, int64, []byte, uint32) error { return nil }

// TestCaptureAllocatesOneScratchBuffer: capture writes every chunk into one
// scratch buffer and, when the chunk spills, keeps nothing of it — so the
// same records captured as 64 spilled chunks cost no more allocations than
// as 4 (beyond the manifest's chunk table growing), not one buffer a chunk.
func TestCaptureAllocatesOneScratchBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	wl, _ := workload.ByName("sha")
	prog := wl.Build(workload.InputTrain)
	const records = 1 << 14
	allocs := func(chunkRecords int64) float64 {
		return testing.AllocsPerRun(3, func() {
			tr, err := trace.CaptureWith(context.Background(), prog, nil, records,
				trace.CaptureOptions{ChunkRecords: chunkRecords, Sink: discardSink{}})
			if err != nil || tr.NumChunks() != records/chunkRecords || !tr.Spilled() {
				t.Fatalf("capture: %v", err)
			}
		})
	}
	few, many := allocs(records/4), allocs(records/64)
	if extra := many - few; extra > 16 {
		t.Errorf("60 more spilled chunks cost %.0f more allocations (%.0f → %.0f), want a handful", extra, few, many)
	}
}

// faultSrc jumps to a PC outside the program: the live stream and a
// captured trace must surface the identical architectural fault — and the
// identical last record, whose NextPC is the out-of-program target.
const faultSrc = `
        .text
main:   li    r9, 12345
        jmp   (r9)
        halt
`

func TestCaptureFaultParity(t *testing.T) {
	// 12345 is past the end (the jump itself faults: "control transfer");
	// a negative target is recorded and the *next* fetch faults, so the
	// jump is the trace's last record and carries the target as NextPC —
	// at full width: -1099511627771 does not fit the 32 bits a row once
	// gave NextPC.
	for _, target := range []int64{12345, -3, -1099511627771} {
		prog := asm.MustAssemble("fault", strings.Replace(faultSrc, "12345", fmt.Sprint(target), 1))

		s := emu.NewStream(emu.NewMachine(prog, nil), 16, 0)
		var live []emu.Record
		for {
			rec, ok := s.Next()
			if !ok {
				break
			}
			live = append(live, *rec)
		}
		if s.Err() == nil {
			t.Fatalf("target %d: live stream did not fault", target)
		}
		if target < 0 && live[len(live)-1].NextPC != isa.PC(target) {
			t.Fatalf("target %d: live stream's last record goes to %d", target, live[len(live)-1].NextPC)
		}

		tr, err := trace.Capture(context.Background(), prog, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != int64(len(live)) {
			t.Fatalf("target %d: trace len %d, stream served %d", target, tr.Len(), len(live))
		}
		w := encodeWire(t, tr)
		adopted, err := w.adopt()
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		for name, from := range map[string]*trace.Trace{"captured": tr, "adopted": adopted} {
			r := trace.NewReader(from, prog, 0)
			var replayed []emu.Record
			for rec := (emu.Record{}); r.NextInto(&rec); {
				replayed = append(replayed, rec)
			}
			if len(replayed) != len(live) {
				t.Fatalf("target %d, %s: replay served %d records, stream %d", target, name, len(replayed), len(live))
			}
			for i := range live {
				if live[i] != replayed[i] {
					t.Errorf("target %d, %s: record %d\nstream: %+v\nreplay: %+v", target, name, i, live[i], replayed[i])
				}
			}
			if r.Err() == nil || r.Err().Error() != s.Err().Error() {
				t.Fatalf("target %d, %s: fault mismatch: stream %q replay %q", target, name, s.Err(), r.Err())
			}
		}

		// A reader bounded before the fault never sees it, exactly like a live
		// stream bounded before the fault.
		bounded := trace.NewReader(tr, prog, tr.Len())
		if bounded.Err() != nil {
			t.Fatalf("target %d: bounded reader err %v, want nil", target, bounded.Err())
		}
	}
}

// wire is a trace in its one wire form: the encoded manifest plus one
// encoded frame per chunk, as a store holds it and a peer ships it.
type wire struct {
	manifest []byte
	frames   [][]byte
}

// FetchChunk makes the frames a ChunkSource the way a store or a peer is
// one: it only moves bytes. Whether they are the right bytes for chunk i
// is for the trace to decide against its manifest.
func (w wire) FetchChunk(i int64) ([]byte, error) {
	_, raw, err := trace.DecodeChunk(w.frames[i])
	return raw, err
}

// encodeWire renders tr on the wire, alternating raw and DEFLATE frames.
func encodeWire(t *testing.T, tr *trace.Trace) wire {
	t.Helper()
	w := wire{manifest: trace.EncodeManifest(tr.Manifest())}
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		raw, err := tr.ChunkPayload(ci)
		if err != nil {
			t.Fatal(err)
		}
		w.frames = append(w.frames, trace.EncodeChunk(ci, raw, ci%2 == 1))
	}
	return w
}

// adopt is the path every trace takes into a process: decode the manifest,
// build the spilled trace over the frames, verify every chunk.
func (w wire) adopt() (*trace.Trace, error) {
	m, err := trace.DecodeManifest(w.manifest)
	if err != nil {
		return nil, err
	}
	tr, err := trace.FromManifest(m, w)
	if err != nil {
		return nil, err
	}
	if err := tr.Materialize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// TestCodecRoundTrip: manifest + chunk frames (raw and DEFLATE mixed) →
// DecodeManifest → FromManifest → Materialize yields a trace whose
// manifest re-encodes byte-identically and which replays identically.
func TestCodecRoundTrip(t *testing.T) {
	prog, mgt, _ := rewritten(t, "adpcm.enc")
	tr, err := trace.CaptureWith(context.Background(), prog, mgt, 30_000, trace.CaptureOptions{ChunkRecords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumChunks() < 4 {
		t.Fatalf("trace has %d chunks, want several", tr.NumChunks())
	}
	w := encodeWire(t, tr)
	back, err := w.adopt()
	if err != nil {
		t.Fatal(err)
	}
	if back.Spilled() {
		t.Fatal("materialized trace still has spilled chunks")
	}
	if !bytes.Equal(trace.EncodeManifest(back.Manifest()), w.manifest) {
		t.Fatal("manifest → trace → manifest not byte-stable")
	}
	if back.Len() != tr.Len() || back.Halted() != tr.Halted() {
		t.Fatalf("metadata changed: len %d→%d halted %v→%v", tr.Len(), back.Len(), tr.Halted(), back.Halted())
	}
	cfg := uarch.MiniGraph(true)
	cfg.MaxRecords = 30_000
	a, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(tr, prog, cfg.MaxRecords)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := uarch.NewWithSource(cfg, mgt, trace.NewReader(back, prog, cfg.MaxRecords)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("adopted trace replays differently")
	}
}

// TestRowBytesPerRecord guards the row format's size: over the full
// traces of the four subset mini-graph binaries a row averages at most 3
// bytes (weighted by rows; about 2 at v6, 10.5 when every row stored its
// pc and full-width values), so a change that makes rows store what replay
// can derive, or values wider than they are, fails by name.
func TestRowBytesPerRecord(t *testing.T) {
	var rows, size int64
	for _, name := range workload.BenchSubset() {
		prog, mgt, _ := rewritten(t, name)
		tr, err := trace.Capture(context.Background(), prog, mgt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Halted() {
			t.Fatalf("%s did not halt during capture", name)
		}
		t.Logf("%s: %d rows in %d bytes, %.2f a row", name, tr.Len(), tr.SizeBytes(), float64(tr.SizeBytes())/float64(tr.Len()))
		rows, size = rows+tr.Len(), size+tr.SizeBytes()
	}
	if mean := float64(size) / float64(rows); mean > 3.0 {
		t.Errorf("%d rows take %d bytes, %.2f a row: want at most 3", rows, size, mean)
	} else {
		t.Logf("%d rows in %d bytes, %.2f a row", rows, size, mean)
	}
}

// vouch replaces chunk ci's payload with damage(payload) under a manifest
// that vouches for the result — its byte count and CRC — the way a peer can
// checksum whatever rows it likes: only the rows themselves can give it
// away.
func vouch(t *testing.T, w *wire, ci int, damage func(raw []byte) []byte) {
	t.Helper()
	_, raw, err := trace.DecodeChunk(w.frames[ci])
	if err != nil {
		t.Fatal(err)
	}
	raw = damage(raw)
	m, err := trace.DecodeManifest(w.manifest)
	if err != nil {
		t.Fatal(err)
	}
	m.Chunks[ci].Bytes, m.Chunks[ci].CRC = int64(len(raw)), crc32.ChecksumIEEE(raw)
	w.manifest, w.frames[ci] = trace.EncodeManifest(m), trace.EncodeChunk(int64(ci), raw, false)
}

// TestDecodeRejectsDamage: every kind of damage to either encoding reads
// as an error — ErrChunkUnavailable when it is a chunk's payload that is
// wrong — never as a trace.
func TestDecodeRejectsDamage(t *testing.T) {
	prog, mgt, _ := rewritten(t, "sha")
	tr, err := trace.CaptureWith(context.Background(), prog, mgt, 1000, trace.CaptureOptions{ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeWire(t, tr)
	if _, err := good.adopt(); err != nil {
		t.Fatalf("undamaged wire form rejected: %v", err)
	}
	if len(good.frames) != 4 {
		t.Fatalf("%d chunks, want 3 full and a 232-row tail", len(good.frames))
	}
	// short is a chunk whose last row carries a value, so cutting a byte
	// off the chunk leaves that row short of one.
	short := -1
	var rec emu.Record
	for rd := trace.NewReader(tr, prog, 0); short < 0 && rd.NextInto(&rec); {
		if rec.Seq%256 == 255 && (rec.IsLoad || rec.IsStore || rec.Dest != isa.RNone) {
			short = int(rec.Seq / 256)
		}
	}
	if short < 0 {
		t.Fatal("no full chunk ends in a row that carries a value")
	}
	// loose is chunk 1 with its first value re-encoded one byte wider
	// than it has to be (the count of trailing ones in a varint's first
	// byte is the bytes after it, 7 value bits a byte; 0xff is followed by
	// 8 raw bytes): the same rows, one varint that is not minimal.
	var loose []byte
	for _, f := range payloadFields(t, tr, prog, 1) {
		if f.value && f.width < 9 {
			_, raw, _ := trace.DecodeChunk(good.frames[1])
			wide := binary.LittleEndian.AppendUint64([]byte{0xff}, f.v)
			if f.width < 8 {
				wide = binary.LittleEndian.AppendUint64(nil, f.v<<(f.width+1)|(1<<f.width-1))[:f.width+1]
			}
			loose = slices.Concat(raw[:f.off], wide, raw[f.off+f.width:])
			break
		}
	}
	if loose == nil {
		t.Fatal("chunk 1 has no value narrower than 9 bytes")
	}
	// cut is chunk short with its last value replaced by a first byte of
	// 0xff, which claims the 8 bytes after it that the payload ends before.
	fs := payloadFields(t, tr, prog, int64(short))
	_, raw, _ := trace.DecodeChunk(good.frames[short])
	cut := append(raw[:fs[len(fs)-1].off:fs[len(fs)-1].off], 0xff)
	// Chunk 2's rows open where chunk 1's end: vouched as chunk 1 under a
	// manifest that has chunk 1 end where chunk 2 does, they differ from
	// chunk 1 only in where they open.
	if m := tr.Manifest(); m.Chunks[0].NextPC == m.Chunks[1].NextPC {
		t.Fatalf("chunks 1 and 2 both open at pc %d", m.Chunks[0].NextPC)
	}
	badMagic := func(b []byte) []byte { return append([]byte{'X'}, b[1:]...) }
	badVersion := func(b []byte) []byte {
		return append(append(append([]byte{}, b[:4]...), 0xff, 0xff), b[6:]...)
	}
	cases := []struct {
		name string
		// manifest damages the decoded manifest, which is then re-encoded
		// (so its own checksum is good and only its content is wrong);
		// bytes damages the encoded forms directly.
		manifest    func(m *trace.Manifest)
		bytes       func(w *wire)
		unavailable bool
	}{
		{name: "payload bit", unavailable: true, bytes: func(w *wire) {
			w.frames[0] = append([]byte{}, w.frames[0]...)
			w.frames[0][len(w.frames[0])-5] ^= 0x40
		}},
		{name: "frames swapped", unavailable: true, bytes: func(w *wire) { w.frames[0], w.frames[2] = w.frames[2], w.frames[0] }},
		{name: "frame truncated", unavailable: true, bytes: func(w *wire) { w.frames[1] = w.frames[1][:len(w.frames[1])/2] }},
		{name: "frame trailing byte", unavailable: true, bytes: func(w *wire) { w.frames[3] = append(append([]byte{}, w.frames[3]...), 0) }},
		{name: "frame magic", unavailable: true, bytes: func(w *wire) { w.frames[0] = badMagic(w.frames[0]) }},
		{name: "frame version", unavailable: true, bytes: func(w *wire) { w.frames[0] = badVersion(w.frames[0]) }},
		// Rows a manifest vouches for — byte count and CRC — that do not
		// read as its rows: the chunk is a miss as a whole.
		{name: "last row short of the values its pc claims", unavailable: true, bytes: func(w *wire) {
			vouch(t, w, short, func(raw []byte) []byte { return raw[:len(raw)-1] })
		}},
		{name: "one trailing byte", unavailable: true, bytes: func(w *wire) {
			vouch(t, w, 1, func(raw []byte) []byte { return append(raw, 0) })
		}},
		{name: "rows tile another row count", unavailable: true, bytes: func(w *wire) {
			_, full, _ := trace.DecodeChunk(w.frames[2])
			vouch(t, w, 3, func([]byte) []byte { return full }) // 256 rows where the manifest says 232
		}},
		{name: "a value that is not minimal", unavailable: true, bytes: func(w *wire) {
			vouch(t, w, 1, func([]byte) []byte { return loose })
		}},
		{name: "a value truncated at the chunk end", unavailable: true, bytes: func(w *wire) {
			vouch(t, w, short, func([]byte) []byte { return cut })
		}},
		{name: "a chunk opening where the previous one does not continue", unavailable: true, bytes: func(w *wire) {
			_, next, _ := trace.DecodeChunk(w.frames[2])
			vouch(t, w, 1, func([]byte) []byte { return next })
			m, _ := trace.DecodeManifest(w.manifest)
			m.Chunks[1].NextPC = m.Chunks[2].NextPC
			w.manifest = trace.EncodeManifest(m)
		}},
		{name: "last row continuing where the manifest does not", unavailable: true, bytes: func(w *wire) {
			m, _ := trace.DecodeManifest(w.manifest)
			m.Chunks[3].NextPC++
			w.manifest = trace.EncodeManifest(m)
		}},
		{name: "manifest byte count lies", unavailable: true, bytes: func(w *wire) {
			m, _ := trace.DecodeManifest(w.manifest)
			m.Chunks[1].Bytes += 8
			w.manifest = trace.EncodeManifest(m)
		}},
		{name: "manifest empty", bytes: func(w *wire) { w.manifest = nil }},
		{name: "manifest magic", bytes: func(w *wire) { w.manifest = badMagic(w.manifest) }},
		{name: "manifest version", bytes: func(w *wire) { w.manifest = badVersion(w.manifest) }},
		{name: "manifest truncated", bytes: func(w *wire) { w.manifest = w.manifest[:len(w.manifest)-3] }},
		{name: "manifest trailing byte", bytes: func(w *wire) { w.manifest = append(append([]byte{}, w.manifest...), 0) }},
		{name: "manifest table bit", bytes: func(w *wire) {
			w.manifest = append([]byte{}, w.manifest...)
			w.manifest[len(w.manifest)-1] ^= 1
		}},
		{name: "manifest static table bit", bytes: func(w *wire) {
			w.manifest = append([]byte{}, w.manifest...)
			w.manifest[len(w.manifest)-20*len(w.frames)-7] ^= 1 // the last static entry's opcode
		}},
		{name: "manifest static flag unknown", manifest: func(m *trace.Manifest) { m.Static[0].Flags |= 1 << 15 }},
		{name: "manifest static sources", manifest: func(m *trace.Manifest) { m.Static[0].NSrcs = 3 }},
		{name: "manifest static unexecuted entry not empty", manifest: func(m *trace.Manifest) {
			m.Static[0].Flags, m.Static[0].Op = 0, uint8(isa.OpAddq)
		}},
		{name: "manifest chunk continues outside the table", manifest: func(m *trace.Manifest) { m.Chunks[0].NextPC = int64(len(m.Static)) }},
		{name: "manifest chunk continues at a negative pc", manifest: func(m *trace.Manifest) { m.Chunks[1].NextPC = -3 }},
		// A payload is the first pc (1 to 9 bytes) and rows of 0 to
		// MaxRecordBytes each.
		{name: "manifest chunk bytes wider than its rows can be", manifest: func(m *trace.Manifest) {
			m.Chunks[0].Bytes = 9 + m.Chunks[0].Rows*trace.MaxRecordBytes + 1
		}},
		{name: "manifest chunk bytes narrower than its rows can be", manifest: func(m *trace.Manifest) {
			m.Chunks[2].Bytes = 0
		}},
		{name: "manifest row count", manifest: func(m *trace.Manifest) { m.Rows++ }},
		{name: "manifest chunk count", manifest: func(m *trace.Manifest) { m.Chunks = m.Chunks[:len(m.Chunks)-1] }},
		{name: "manifest geometry", manifest: func(m *trace.Manifest) { m.ChunkRecords = 48 }},
	}
	for _, c := range cases {
		w := wire{manifest: good.manifest, frames: append([][]byte{}, good.frames...)}
		if c.manifest != nil {
			m := tr.Manifest()
			c.manifest(&m)
			if _, err := trace.FromManifest(m, w); err == nil {
				t.Errorf("%s: FromManifest accepted the damaged manifest", c.name)
			}
			w.manifest = trace.EncodeManifest(m)
			if _, err := trace.DecodeManifest(w.manifest); err == nil {
				t.Errorf("%s: DecodeManifest accepted the damaged manifest", c.name)
			}
		}
		if c.bytes != nil {
			c.bytes(&w)
		}
		got, err := w.adopt()
		if err == nil || got != nil {
			t.Errorf("%s: damaged wire form adopted as a trace", c.name)
		}
		if errors.Is(err, trace.ErrChunkUnavailable) != c.unavailable {
			t.Errorf("%s: ErrChunkUnavailable=%v, want %v (err: %v)", c.name, !c.unavailable, c.unavailable, err)
		}
	}
}

// payloadField is one varint of a chunk payload: where it starts, how wide
// it is, what it holds, and whether it is a value (ea, destVal or
// storeVal) rather than the first pc or a control word.
type payloadField struct {
	off, width int
	v          uint64
	value      bool
}

// payloadFields lays chunk ci of tr out the way the row format does — the
// chunk's first pc, then for each record the control word, ea, destVal and
// storeVal its pc carries — from the records a Reader serves, and checks
// the layout adds up to the chunk's payload.
func payloadFields(t *testing.T, tr *trace.Trace, prog *isa.Program, ci int64) []payloadField {
	t.Helper()
	var fs []payloadField
	off := 0
	add := func(v uint64, value bool) {
		w := len(trace.AppendVarint(nil, v))
		fs = append(fs, payloadField{off, w, v, value})
		off += w
	}
	first, end := ci*tr.ChunkRecords(), (ci+1)*tr.ChunkRecords()
	var rec emu.Record
	for rd := trace.NewReader(tr, prog, end); rd.NextInto(&rec); {
		switch {
		case rec.Seq < first:
			continue
		case rec.Seq == first:
			add(uint64(rec.PC), false)
		}
		if rec.IsCtrl {
			var w uint64
			if rec.Taken {
				w = ctrlWord(int64(rec.PC), int64(rec.NextPC))
			}
			add(w, false)
		}
		if rec.IsLoad || rec.IsStore {
			add(uint64(rec.EA), true)
		}
		if !rec.Dest.IsZero() && int(rec.Dest) < isa.TotalRegs {
			add(rec.DestVal, true)
		}
		if rec.IsStore {
			add(rec.StoreVal, true)
		}
	}
	if raw, err := tr.ChunkPayload(ci); err != nil || len(raw) != off {
		t.Fatalf("chunk %d: the row format lays out %d bytes, the payload has %d (%v)", ci, off, len(raw), err)
	}
	return fs
}

// ctrlWord is the control word of a taken transfer at pc continuing at
// next: 1 + the zigzag of its displacement from pc+1.
func ctrlWord(pc, next int64) uint64 {
	d := next - pc - 1
	return 1 + (uint64(d<<1) ^ uint64(d>>63))
}

// TestRowOutsideStaticTableIsAMiss: a row is trusted no further than its
// chunk's CRC, and a CRC only says the bytes are the ones the manifest's
// author checksummed. A chunk that opens at a pc past the static table, or
// a control word that continues past it, before pc 0, or at a pc the trace
// never executed, makes its whole chunk a miss: adopting the trace fails,
// and replaying it spilled cuts the stream at the chunk's first record
// with ErrChunkUnavailable — through a solo reader and a gang cursor alike
// — so not one of its rows decodes into a record.
func TestRowOutsideStaticTableIsAMiss(t *testing.T) {
	prog := asm.MustAssemble("skip", `
        .text
main:   li    r1, 1
        bne   r1, done
        addq  r1, r1, r1
done:   halt
`)
	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("captured %d records, want 3 (the addq is skipped)", tr.Len())
	}
	good, err := tr.ChunkPayload(0)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk opens at pc 0; li writes r1 (its destVal, 1), bne is taken
	// one instruction past its fall-through (control word 1+zigzag(1) = 3)
	// and halt stores nothing: one byte each.
	varint := func(v uint64) []byte { return trace.AppendVarint(nil, v) }
	if want := slices.Concat(varint(0), varint(1), varint(3)); !bytes.Equal(good, want) {
		t.Fatalf("the three rows are % x, want % x", good, want)
	}
	// ctrl is the bne's control word continuing at pc to (the manifest's
	// NextPC is left alone: the row check fails before the last row's).
	ctrl := func(to int64) uint64 { return ctrlWord(1, to) }
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"first pc past the table", slices.Concat(varint(uint64(prog.Len())), good[1:])},
		{"first pc far past the table", slices.Concat(varint(1<<63), good[1:])},
		{"control word continues past the table", slices.Concat(good[:2], varint(ctrl(int64(prog.Len()))))},
		{"control word continues far past the table", slices.Concat(good[:2], varint(ctrl(1<<40)))},
		{"control word continues before pc 0", slices.Concat(good[:2], varint(ctrl(-1)))},
		{"control word continues at an unexecuted pc", slices.Concat(good[:2], varint(ctrl(2)))},
	} {
		m := tr.Manifest()
		m.Chunks[0].Bytes, m.Chunks[0].CRC = int64(len(c.raw)), crc32.ChecksumIEEE(c.raw)
		w := wire{manifest: trace.EncodeManifest(m), frames: [][]byte{trace.EncodeChunk(0, c.raw, false)}}
		if _, err := w.adopt(); !errors.Is(err, trace.ErrChunkUnavailable) {
			t.Errorf("%s: adopting a chunk with a row outside the table gave %v, want ErrChunkUnavailable", c.name, err)
		}
		spilled, err := trace.FromManifest(m, w)
		if err != nil {
			t.Fatal(err)
		}
		var rec emu.Record
		rd := trace.NewReader(spilled, prog, 0)
		for rd.NextInto(&rec) {
		}
		if rd.Cursor() != 0 || !errors.Is(rd.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: solo reader served %d records of a damaged chunk and reported %v", c.name, rd.Cursor(), rd.Err())
		}
		cur := trace.NewGangReaderWindowed(spilled, prog, 0, 0).Cursor(0)
		for cur.NextInto(&rec) {
		}
		if cur.Cursor() != 0 || !errors.Is(cur.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: gang cursor served %d records of a damaged chunk and reported %v", c.name, cur.Cursor(), cur.Err())
		}
	}
}
