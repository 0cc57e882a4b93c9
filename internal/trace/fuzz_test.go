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

// rewindSrc is a loop whose rows take four widths (a load, an ALU result,
// a store, a branch), so the byte offset of a row is not a multiple of
// anything; it runs 100 times for 504 records.
const rewindSrc = `
        .data
buf:    .space 16
        .text
main:   li    r1, 100
        lda   r2, buf(zero)
        clr   r3
loop:   ldq   r4, 0(r2)
        addq  r3, r4, r3
        stq   r3, 8(r2)
        subl  r1, 1, r1
        bne   r1, loop
        halt
`

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

// FuzzReaderRewind drives two gang cursors sharing one chunk window, each
// beside a solo Reader of its own, through an arbitrary schedule of
// consumes and rewinds over a spilled 128-row-chunk trace of rewindSrc,
// and demands at every step the record the live machine produced. The
// solo Readers hold one chunk each; the gang's window, sized from an
// 8-record lag, holds two, so a cursor crossing into a chunk can evict the
// one the other cursor is decoding. Schedule bytes: bit 1 picks the
// cursor (and its Reader); an even op consumes (op>>2)%8+1 records, an odd
// op rewinds op>>2 records back (clamped to zero). The seed corpus
// includes the maximum-rewind-depth case — consume the entire trace, then
// rewind all the way to record zero — so unbounded Rewind can never
// silently clamp to a retention window. The seeds in testdata/fuzz rewind
// onto the last row of a chunk and the first row of the next (127 and
// 128: the row whose continuation the manifest's NextPC checks and the
// row whose pc the payload opens with, and the last and first row of an
// index stride), onto the last row of the trace, and from one chunk back into the previous onto
// the first and the last row of an index stride (192 and 191), so a seek
// lands on an indexed row and on the row 63 steps past one. One more
// (two-cursors-two-chunks-apart) runs the first cursor two chunks ahead
// and lets the second cross into chunk 1, which evicts chunk 2 from under
// the first; the first reads on from the chunk it pins, then both walk
// on crossing boundaries in turn, and the first rewinds back across two
// of them, evicting the chunk under the second, which then rewinds within
// the chunk it pins.
func FuzzReaderRewind(f *testing.F) {
	prog := asm.MustAssemble("rewind", rewindSrc)
	captured, err := trace.CaptureWith(context.Background(), prog, nil, 0, trace.CaptureOptions{ChunkRecords: 128})
	if err != nil {
		f.Fatal(err)
	}
	tr := spilled(f, captured)
	var live []emu.Record
	for m := emu.NewMachine(prog, nil); !m.Halted; {
		var rec emu.Record
		if err := m.Step(&rec); err != nil {
			f.Fatal(err)
		}
		live = append(live, rec)
	}
	full := bytes.Repeat([]byte{0x1c}, int(tr.Len())/8+2)                  // consume past exhaustion
	f.Add(append(full, bytes.Repeat([]byte{0xfd}, int(tr.Len())/63+1)...)) // then max-depth rewind to zero
	f.Add([]byte{0x04, 0x1e, 0x09, 0x0c, 0x07, 0x1c})                      // mixed short hops on both cursors
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, sched []byte) {
		g := trace.NewGangReaderWindowed(tr, prog, 8, 1)
		var solo, gang [2]*trace.Reader
		for i := range gang {
			solo[i], gang[i] = trace.NewReaderWindowed(tr, prog, 0, 1), g.Cursor(0)
		}
		var a, b emu.Record
		for step, op := range sched {
			rd, cur := solo[op>>1&1], gang[op>>1&1]
			if op&1 == 0 {
				for n := int(op>>2)%8 + 1; n > 0; n-- {
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
				seq := max(cur.Cursor()-int64(op>>2), 0)
				rd.Rewind(seq)
				cur.Rewind(seq)
			}
		}
		for i := range gang {
			if solo[i].Exhausted() != gang[i].Exhausted() {
				t.Fatalf("cursor %d: exhaustion mismatch: reader %v gang %v", i, solo[i].Exhausted(), gang[i].Exhausted())
			}
			if solo[i].Err() != nil || gang[i].Err() != nil {
				t.Fatalf("cursor %d: replay failed: reader %v gang %v", i, solo[i].Err(), gang[i].Err())
			}
		}
	})
}

// FuzzChunkCodec: DecodeManifest and DecodeChunk must never panic on
// arbitrary bytes, an accepted manifest must be canonical (re-encodes to
// the identical bytes) and adoptable, and an accepted chunk frame must
// round-trip its payload bit-exactly through both the raw and the
// compressed encoding. These are the frames that cross process and
// machine boundaries (store entries, peer transfers), so they see truly
// hostile input — which neither a frame's CRC nor a manifest's stops: a
// peer can checksum whatever it likes. So an accepted manifest is replayed
// over the seed trace's chunks, and an accepted frame is replayed as a
// chunk of the seed trace under a manifest that vouches for its byte count
// and CRC: either reads as records or as a miss, never as a panic, and a
// vouched chunk whose rows do not read serves none of them. The seeds in
// testdata/fuzz add damaged static tables, a flipped per-chunk NextPC, a
// lying byte count, and vouched frames whose rows do not read: a first pc
// past the table, a control word continuing past it, a chunk opening at a
// pc other than the previous chunk's NextPC, a last row continuing where
// the manifest's NextPC does not, a value that is not a minimal varint, a
// value truncated at the chunk end, a last row short of the value its pc
// claims, a trailing byte, and rows that tile a count other than the
// manifest's.
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
	seedChunks := make(chunkMap)
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		seedChunks[ci], _ = tr.ChunkPayload(ci)
	}

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
			// Whatever program it describes, binding it to this one over
			// the seed's rows is a fit or a miss.
			adopted.BindSource(seedChunks)
			rd := trace.NewReader(adopted, prog, 0)
			var rec emu.Record
			for rd.NextInto(&rec) {
			}
			if err := rd.Err(); err != nil && !errors.Is(err, trace.ErrChunkUnavailable) && err.Error() != m.ErrMsg {
				t.Fatalf("replaying an adopted manifest: %v", err)
			}
		}
		if idx, raw, err := trace.DecodeChunk(data); err == nil {
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
			if idx >= int64(len(m.Chunks)) {
				return
			}
			m.Chunks[idx].Bytes, m.Chunks[idx].CRC = int64(len(raw)), crc32.ChecksumIEEE(raw)
			src := chunkMap{idx: raw}
			for ci := range m.Chunks {
				if int64(ci) != idx {
					src[int64(ci)] = seedChunks[int64(ci)]
				}
			}
			vouched, err := trace.FromManifest(m, src)
			if err != nil {
				return // no rows of this chunk's row count are that many bytes
			}
			rd := trace.NewReader(vouched, prog, 0)
			var rec emu.Record
			for rd.NextInto(&rec) {
			}
			switch err := rd.Err(); {
			case err == nil && rd.Cursor() != tr.Len():
				t.Fatalf("replaying an accepted frame stopped at %d of %d records", rd.Cursor(), tr.Len())
			case err != nil && !errors.Is(err, trace.ErrChunkUnavailable):
				t.Fatalf("replaying an accepted frame: %v", err)
			case err != nil && rd.Cursor() != idx*m.ChunkRecords:
				t.Fatalf("a vouched chunk %d that does not read served %d records, want the %d before it", idx, rd.Cursor(), idx*m.ChunkRecords)
			}
		}
	})
}
