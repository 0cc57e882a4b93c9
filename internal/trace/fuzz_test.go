package trace_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/trace"
)

// fuzzSeedSrc is a tiny program whose capture exercises every record shape
// the codec carries: ALU ops, loads, stores, conditional branches, calls,
// returns and halt.
const fuzzSeedSrc = `
        .data
buf:    .word 3, 1, 4, 1, 5
out:    .space 8
        .text
main:   li    r1, 5
        lda   r2, buf(zero)
        clr   r3
loop:   ldq   r4, 0(r2)
        addq  r3, r4, r3
        lda   r2, 8(r2)
        subl  r1, 1, r1
        bne   r1, loop
        bsr   ra, leaf
        stq   r3, out(zero)
        halt
leaf:   addq  r3, r3, r3
        ret   (ra)
`

// seedTrace captures fuzzSeedSrc into 16-row chunks (33 records: two full
// chunks and a one-row tail) and returns it twice — as captured, and as a
// process adopts it from outside: fully spilled behind its own manifest —
// with the live record stream it must replay as.
func seedTrace(f *testing.F) (prog *isa.Program, captured, adopted *trace.Trace, live []emu.Record) {
	prog = asm.MustAssemble("seed", fuzzSeedSrc)
	captured, err := trace.CaptureWith(context.Background(), prog, nil, 0, trace.CaptureOptions{ChunkRecords: 16})
	if err != nil {
		f.Fatal(err)
	}
	adopted = spilled(f, captured)
	m := emu.NewMachine(prog, nil)
	for !m.Halted {
		var rec emu.Record
		if err := m.Step(&rec); err != nil {
			f.Fatal(err)
		}
		live = append(live, rec)
	}
	return prog, captured, adopted, live
}

// spilled returns tr as a process adopts it from outside: no chunk
// resident, every one behind a ChunkSource.
func spilled(tb testing.TB, tr *trace.Trace) *trace.Trace {
	tb.Helper()
	src := make(chunkMap)
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		raw, err := tr.ChunkPayload(ci)
		if err != nil {
			tb.Fatal(err)
		}
		src[ci] = raw
	}
	out, err := trace.FromManifest(tr.Manifest(), src)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// chunkMap is a ChunkSource over raw chunk payloads held in memory.
type chunkMap map[int64][]byte

func (c chunkMap) FetchChunk(i int64) ([]byte, error) {
	raw, ok := c[i]
	if !ok {
		return nil, fmt.Errorf("no chunk %d", i)
	}
	return raw, nil
}

// FuzzReaderRewind drives a solo Reader and a gang cursor (over a tiny
// shared ring, so the lag boundary is crossed constantly) through an
// arbitrary schedule of consumes and rewinds over a spilled 16-row-chunk
// trace behind a one-chunk window, and demands at every step the record
// the live machine produced. Schedule bytes: even op = consume (op/2)%8+1
// records, odd op = rewind op/2 records back (clamped to zero). The seed
// corpus includes the maximum-rewind-depth case — consume the entire
// trace, then rewind all the way to record zero — so unbounded Rewind can
// never silently clamp to a retention window, and (testdata/fuzz) rewinds
// onto the last row of a chunk and the first row of the next: the two
// rows whose NextPC does not come from the row after them in the chunk.
func FuzzReaderRewind(f *testing.F) {
	prog, _, tr, live := seedTrace(f)
	full := bytes.Repeat([]byte{0xfe}, int(tr.Len())/8+2) // consume past exhaustion
	f.Add(append(append([]byte{}, full...), 0xff))        // then max-depth rewind to zero
	f.Add([]byte{0x02, 0x03, 0x0e, 0x05, 0xfe})           // mixed short hops
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, sched []byte) {
		rd := trace.NewReaderWindowed(tr, prog, 0, 1)
		g := trace.NewGangReaderWindowed(tr, prog, 8, 1)
		cur := g.Cursor(0)
		var a, b emu.Record
		for step, op := range sched {
			if op&1 == 0 {
				for n := int(op>>1)%8 + 1; n > 0; n-- {
					aok, bok := rd.NextInto(&a), cur.NextInto(&b)
					if aok != bok {
						t.Fatalf("op %d: reader ok=%v gang ok=%v", step, aok, bok)
					}
					if !aok {
						break
					}
					if a != live[a.Seq] || b != live[a.Seq] {
						t.Fatalf("op %d: record mismatch\nlive:   %+v\nreader: %+v\ngang:   %+v", step, live[a.Seq], a, b)
					}
				}
			} else {
				seq := cur.Cursor() - int64(op>>1)
				if seq < 0 {
					seq = 0
				}
				rd.Rewind(seq)
				cur.Rewind(seq)
			}
		}
		if rd.Exhausted() != cur.Exhausted() {
			t.Fatalf("exhaustion mismatch: reader %v gang %v", rd.Exhausted(), cur.Exhausted())
		}
		if rd.Err() != nil || cur.Err() != nil {
			t.Fatalf("replay failed: reader %v gang %v", rd.Err(), cur.Err())
		}
	})
}

// FuzzChunkCodec: DecodeManifest and DecodeChunk must never panic on
// arbitrary bytes, an accepted manifest must be canonical (re-encodes to
// the identical bytes) and adoptable, and an accepted chunk frame must
// round-trip its payload bit-exactly through both the raw and the
// compressed encoding. These are the frames that cross process and
// machine boundaries (store entries, peer transfers), so they see truly
// hostile input — which a frame's CRC does not stop: a peer can checksum
// whatever rows it likes. So an accepted frame is also replayed as a
// chunk of the seed trace, under a manifest that vouches for it, and the
// rows it holds must read as records or as a miss, never as a panic.
func FuzzChunkCodec(f *testing.F) {
	prog, tr, _, _ := seedTrace(f)
	f.Add(trace.EncodeManifest(tr.Manifest()))
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		raw, err := tr.ChunkPayload(ci)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(trace.EncodeChunk(ci, raw, ci%2 == 1))
	}
	short, err := trace.CaptureWith(context.Background(), prog, nil, 3,
		trace.CaptureOptions{ChunkRecords: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace.EncodeManifest(short.Manifest()))
	f.Add([]byte{})
	f.Add([]byte("MGTM garbage"))
	f.Add([]byte("MGTC garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := trace.DecodeManifest(data); err == nil {
			re := trace.EncodeManifest(m)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted non-canonical manifest: %d bytes in, %d re-encoded", len(data), len(re))
			}
			if _, err := trace.DecodeManifest(re); err != nil {
				t.Fatalf("re-encoded manifest does not decode: %v", err)
			}
			adopted, err := trace.FromManifest(m, nil)
			if err != nil {
				t.Fatalf("decoded manifest is not adoptable: %v", err)
			}
			// Whatever program it describes, binding it to this one is a
			// fit or a miss.
			if err := trace.NewReader(adopted, prog, 0).Err(); err != nil && !errors.Is(err, trace.ErrChunkUnavailable) && err.Error() != m.ErrMsg {
				t.Fatalf("opening an adopted manifest: %v", err)
			}
		}
		if idx, raw, err := trace.DecodeChunk(data); err == nil {
			if len(raw)%trace.RecordBytes != 0 {
				t.Fatalf("accepted chunk of %d bytes: not whole rows", len(raw))
			}
			for _, compress := range []bool{false, true} {
				re := trace.EncodeChunk(idx, raw, compress)
				idx2, raw2, err := trace.DecodeChunk(re)
				if err != nil {
					t.Fatalf("re-encoded chunk (compress=%v) does not decode: %v", compress, err)
				}
				if idx2 != idx || !bytes.Equal(raw2, raw) {
					t.Fatalf("chunk round trip (compress=%v) changed the payload", compress)
				}
			}
			m := tr.Manifest()
			if idx < int64(len(m.Chunks)) && int64(len(raw)) == m.Chunks[idx].Rows*trace.RecordBytes {
				m.Chunks[idx].CRC = crc32.ChecksumIEEE(raw)
				src := chunkMap{idx: raw}
				for ci := range m.Chunks {
					if int64(ci) != idx {
						src[int64(ci)], _ = tr.ChunkPayload(int64(ci))
					}
				}
				vouched, err := trace.FromManifest(m, src)
				if err != nil {
					t.Fatal(err)
				}
				rd := trace.NewReader(vouched, prog, 0)
				var rec emu.Record
				for rd.NextInto(&rec) {
				}
				if err := rd.Err(); err != nil && !errors.Is(err, trace.ErrChunkUnavailable) {
					t.Fatalf("replaying an accepted frame: %v", err)
				}
			}
		}
	})
}
