package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
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
	step := 0
	for {
		sr, sok := s.Next()
		rr, rok := r.Next()
		if sok != rok {
			t.Fatalf("step %d: stream ok=%v reader ok=%v", step, sok, rok)
		}
		if !sok {
			break
		}
		if !reflect.DeepEqual(*sr, *rr) {
			t.Fatalf("step %d: record mismatch\nstream: %+v\nreplay: %+v", step, *sr, *rr)
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
	var first emu.Record
	for i := 0; i < 10_000; i++ {
		rec, ok := r.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if i == 0 {
			first = *rec
		}
	}
	r.Rewind(0)
	rec, ok := r.Next()
	if !ok || !reflect.DeepEqual(*rec, first) {
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
			for {
				rec, ok := r.Next()
				if !ok {
					break
				}
				replayed = append(replayed, *rec)
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
			w.manifest[len(w.manifest)-16*len(w.frames)-7] ^= 1 // the last static entry's opcode
		}},
		{name: "manifest static flag unknown", manifest: func(m *trace.Manifest) { m.Static[0].Flags |= 1 << 15 }},
		{name: "manifest static sources", manifest: func(m *trace.Manifest) { m.Static[0].NSrcs = 3 }},
		{name: "manifest static unexecuted entry not empty", manifest: func(m *trace.Manifest) {
			m.Static[0].Flags, m.Static[0].Op = 0, uint8(isa.OpAddq)
		}},
		{name: "manifest chunk continues outside the table", manifest: func(m *trace.Manifest) { m.Chunks[0].NextPC = int64(len(m.Static)) }},
		{name: "manifest chunk continues at a negative pc", manifest: func(m *trace.Manifest) { m.Chunks[1].NextPC = -3 }},
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

// TestRowOutsideStaticTableIsAMiss: a row is trusted no further than its
// chunk's CRC, and a CRC only says the bytes are the ones the manifest's
// author checksummed. A row (or its successor, which supplies its NextPC)
// naming a pc past the static table, or one the trace never executed,
// cuts the stream there with ErrChunkUnavailable — through a solo reader
// and a gang cursor alike — and never decodes into a record.
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
	for _, c := range []struct {
		name   string
		row    int
		pc     uint32
		served int64 // records before the cut
	}{
		// A bad pc already spoils the record before it, whose NextPC it is.
		{"past the table", 1, uint32(prog.Len()), 0},
		{"far past the table", 2, 1<<31 - 1, 1},
		{"unexecuted", 2, 2, 1},
		{"first row, taken bit set", 0, uint32(prog.Len()) | 1<<31, 0},
	} {
		raw := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(raw[c.row*trace.RecordBytes:], c.pc)
		m := tr.Manifest()
		m.Chunks[0].CRC = crc32.ChecksumIEEE(raw)
		w := wire{manifest: trace.EncodeManifest(m), frames: [][]byte{trace.EncodeChunk(0, raw, false)}}
		adopted, err := w.adopt()
		if err != nil {
			t.Fatalf("%s: a chunk its manifest vouches for was not adopted: %v", c.name, err)
		}
		var rec emu.Record
		rd := trace.NewReader(adopted, prog, 0)
		for rd.NextInto(&rec) {
		}
		if rd.Cursor() != c.served || !errors.Is(rd.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: solo reader served %d records (want %d) and reported %v", c.name, rd.Cursor(), c.served, rd.Err())
		}
		cur := trace.NewGangReader(adopted, prog, 0).Cursor(0)
		for cur.NextInto(&rec) {
		}
		if cur.Cursor() != c.served || !errors.Is(cur.Err(), trace.ErrChunkUnavailable) {
			t.Errorf("%s: gang cursor served %d records (want %d) and reported %v", c.name, cur.Cursor(), c.served, cur.Err())
		}
	}
}
