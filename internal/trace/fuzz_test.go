package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/emu"
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

// FuzzReaderRewind drives a solo Reader and a gang cursor (over a tiny
// shared window, so the lag boundary is crossed constantly) through an
// arbitrary schedule of consumes and rewinds and demands byte-identical
// records at every step. Schedule bytes: even op = consume (op/2)%8+1
// records, odd op = rewind op/2 records back (clamped to zero). The seed
// corpus includes the maximum-rewind-depth case — consume the entire
// trace, then rewind all the way to record zero — so unbounded Rewind can
// never silently clamp to a retention window.
func FuzzReaderRewind(f *testing.F) {
	prog := asm.MustAssemble("seed", fuzzSeedSrc)
	tr, err := trace.Capture(context.Background(), prog, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xfe}, int(tr.Len())/8+2) // consume past exhaustion
	f.Add(append(append([]byte{}, full...), 0xff))        // then max-depth rewind to zero
	f.Add([]byte{0x02, 0x03, 0x0e, 0x05, 0xfe})           // mixed short hops
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, sched []byte) {
		rd := trace.NewReader(tr, prog, 0)
		g := trace.NewGangReader(tr, prog, 8)
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
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("op %d: record mismatch\nreader: %+v\ngang:   %+v", step, a, b)
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
	})
}

// FuzzChunkCodec: DecodeManifest and DecodeChunk must never panic on
// arbitrary bytes, an accepted manifest must be canonical (re-encodes to
// the identical bytes), and an accepted chunk frame must round-trip its
// payload bit-exactly through both the raw and the compressed encoding.
// These are the frames that cross process and machine boundaries (store
// entries, peer transfers), so they see truly hostile input.
func FuzzChunkCodec(f *testing.F) {
	prog := asm.MustAssemble("seed", fuzzSeedSrc)
	tr, err := trace.CaptureWith(context.Background(), prog, nil, 0,
		trace.CaptureOptions{ChunkRecords: 16})
	if err != nil {
		f.Fatal(err)
	}
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
		}
	})
}
