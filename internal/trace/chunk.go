package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"minigraph/internal/emu"
	"minigraph/internal/isa"
)

// Chunked backing. A Trace's packed rows are not one flat buffer but a
// sequence of chunks of a fixed row count (a power of two,
// DefaultChunkRecords unless overridden at capture). The chunk is the unit
// of everything the substrate does with trace data:
//
//   - capture seals one chunk at a time and can spill sealed chunks
//     through a ChunkSink instead of retaining them, so capturing a trace
//     never needs more than one open chunk of memory;
//   - each chunk carries its own CRC, so damage is detected — and
//     re-fetched or re-captured — per chunk, not per multi-GB blob;
//   - the persistent store holds one record per chunk plus a Manifest
//     naming them, so a cold process (or a peer transfer) moves and
//     verifies the trace chunk by chunk;
//   - a chunk becomes resident (sealed and retained, faulted in, or
//     materialized) through one pass over its rows that checks them and
//     indexes them (see resident);
//   - Readers hold a bounded window of resident chunks and fault evicted
//     ones back in through a ChunkSource, so replay memory is bounded by
//     the window, not the trace. Rewind stays unbounded: rewinding past
//     the window merely re-faults old chunks, it never clamps.
const (
	// DefaultChunkRecords is the records-per-chunk default (~64Ki rows,
	// at most 2.25 MiB of packed rows per chunk, ~150 KiB at the ~2.4
	// bytes a row the mini-graph binaries average).
	DefaultChunkRecords = 1 << 16

	// minChunkRecords floors the records-per-chunk override. Tiny chunks
	// exist so tests can cross many chunk boundaries cheaply; below this
	// the per-chunk framing overhead stops being meaningful.
	minChunkRecords = 1 << 4

	// maxChunkRecords caps it so that a chunk of the widest rows still
	// counts its bytes in the u32 the frame and the manifest give them.
	maxChunkRecords = 1 << 26

	// indexStride is the row distance between a resident chunk's indexed
	// rows: reaching any row is one lookup and fewer than indexStride row
	// steps.
	indexStride = 64
)

// normalizeChunkRecords rounds n up to a power of two within
// [minChunkRecords, maxChunkRecords], with 0 (and negatives) selecting the
// default.
func normalizeChunkRecords(n int64) int64 {
	if n <= 0 {
		return DefaultChunkRecords
	}
	if n < minChunkRecords {
		n = minChunkRecords
	}
	if n > maxChunkRecords {
		n = maxChunkRecords
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len64(uint64(n))
	}
	return n
}

// ErrChunkUnavailable marks a replay failure caused by a non-resident
// chunk that the trace's ChunkSource could not deliver (store eviction
// under a live reader, a vanished peer). Callers that can re-capture
// should treat it as "the trace is gone", not as a simulation bug.
var ErrChunkUnavailable = errors.New("trace: chunk unavailable")

// ChunkSink receives sealed chunks during capture (see CaptureWith). A
// nil error means the sink now owns a durable copy and the capture may
// drop the chunk from memory; an error keeps the chunk resident in the
// returned Trace (capture never fails because spilling did).
//
// data is the chunk's raw packed rows; it must not be retained after
// SealChunk returns unless the sink copies it.
type ChunkSink interface {
	SealChunk(index int64, rows int64, data []byte, crc uint32) error
}

// ChunkSource supplies the raw packed rows of one sealed chunk by index
// (see Trace.BindSource). The returned bytes are verified against the
// trace's manifest by the caller, so a source only moves bytes. Sources
// must be safe for concurrent use — every Reader over a spilled trace
// faults through the one bound source.
type ChunkSource interface {
	FetchChunk(index int64) ([]byte, error)
}

// ChunkInfo is one manifest entry: the row count, payload byte count and
// payload CRC of one sealed chunk, and the NextPC of its last row — which
// the rows also say (a row's continuation is the next row's pc), so a
// chunk becomes resident only if the two agree, and the next chunk only
// if it opens at this pc. It is full width because the trace's last record
// may leave the program entirely (the step after it faults at fetch).
type ChunkInfo struct {
	Rows   int64
	Bytes  int64
	CRC    uint32
	NextPC int64
}

// Verify checks that raw is the payload this entry describes: its byte
// count and its CRC. Whether its rows make sense under the static table is
// checked when the chunk becomes resident.
func (c ChunkInfo) Verify(raw []byte) error {
	if int64(len(raw)) != c.Bytes {
		return fmt.Errorf("payload is %d bytes, the manifest says %d", len(raw), c.Bytes)
	}
	if crc32.ChecksumIEEE(raw) != c.CRC {
		return errors.New("payload checksum mismatch")
	}
	return nil
}

// Manifest describes a chunked trace without its rows: total rows,
// records per chunk, capture termination state, the static table (one
// StaticInst per static instruction, indexed by pc), and the per-chunk
// row and byte counts, checksums and next pcs. It is the unit the store
// persists under the trace's key — chunk payloads live in their own
// records — and what a peer transfer fetches first to know what to
// stream; with the static table in it, rows plus manifest are the whole
// trace.
type Manifest struct {
	ChunkRecords int64
	Rows         int64
	Halted       bool
	ErrMsg       string
	Static       []StaticInst
	Chunks       []ChunkInfo
}

// check rejects a static table or a chunk table no capture writes:
// unknown flags, more than two sources, an unexecuted entry that is not
// all zero, a chunk whose byte count no rows of its row count can have —
// at least the first pc's one byte (a row can be none), at most the widest
// first pc and rows — or a chunk other than the last whose NextPC — the pc
// of the row that follows it — is not an executed entry. Only the last
// chunk can point outside the program.
func (m Manifest) check() error {
	for pc, s := range m.Static {
		switch {
		case s.Flags&^staticKnownFlags != 0:
			return fmt.Errorf("trace: static entry %d has unknown flags %#x", pc, s.Flags)
		case s.Flags&staticExecuted == 0 && s != StaticInst{}:
			return fmt.Errorf("trace: static entry %d is unexecuted but not empty", pc)
		case s.NSrcs > 2:
			return fmt.Errorf("trace: static entry %d has %d sources", pc, s.NSrcs)
		}
	}
	for i, c := range m.Chunks {
		if c.Bytes < 1 || c.Bytes > maxVarintBytes+c.Rows*MaxRecordBytes {
			return fmt.Errorf("trace: manifest chunk %d claims %d bytes for %d rows", i, c.Bytes, c.Rows)
		}
	}
	for i := 0; i < len(m.Chunks)-1; i++ {
		next := m.Chunks[i].NextPC
		if next < 0 || next >= int64(len(m.Static)) || m.Static[next].Flags&staticExecuted == 0 {
			return fmt.Errorf("trace: manifest chunk %d continues at pc %d, which the static table does not hold", i, next)
		}
	}
	return nil
}

// manifestMagic tags a manifest encoding ("MGTM", little-endian).
const manifestMagic uint32 = 0x4d54474d

// chunkMagic tags a chunk frame ("MGTC", little-endian).
const chunkMagic uint32 = 0x4354474d

// chunkFlagFlate marks a chunk frame whose payload is DEFLATE-compressed.
const chunkFlagFlate uint16 = 1 << 0

// manifestHeaderBytes: magic(4) version(2) flags(2: bit0 halted)
// errLen(4) rows(8) chunkRecords(8) chunkCount(4) staticCount(4) crc(4),
// then errMsg, then staticCount × staticInstBytes, then chunkCount ×
// (rows u32 | bytes u32 | crc u32 | nextPC i64). crc is the IEEE CRC-32
// of everything after the header: errMsg, the static table and the chunk
// table.
const manifestHeaderBytes = 4 + 2 + 2 + 4 + 8 + 8 + 4 + 4 + 4

// chunkInfoBytes is one chunk-table entry of an encoded manifest.
const chunkInfoBytes = 4 + 4 + 4 + 8

// chunkHeaderBytes: magic(4) version(2) flags(2) index(4) rawLen(4)
// rawCRC(4) encLen(4), then encLen payload bytes (raw packed rows, or a
// DEFLATE stream of them when chunkFlagFlate is set). rawLen and rawCRC
// are always those of the *uncompressed* rows — the manifest and the
// frame agree on one byte count and one checksum no matter how the
// payload traveled.
const chunkHeaderBytes = 4 + 2 + 2 + 4 + 4 + 4 + 4

// EncodeManifest renders m in the versioned binary manifest encoding.
// The encoding is canonical: equal manifests encode to equal bytes.
func EncodeManifest(m Manifest) []byte {
	buf := make([]byte, manifestHeaderBytes, manifestHeaderBytes+len(m.ErrMsg)+
		staticInstBytes*len(m.Static)+chunkInfoBytes*len(m.Chunks))
	buf = append(buf, m.ErrMsg...)
	for _, s := range m.Static {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.MGID))
		buf = binary.LittleEndian.AppendUint16(buf, s.Flags)
		buf = append(buf, s.Op, s.NSrcs, s.Srcs[0], s.Srcs[1], s.Dest, s.MemSize)
	}
	for _, c := range m.Chunks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Bytes))
		buf = binary.LittleEndian.AppendUint32(buf, c.CRC)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NextPC))
	}
	h := buf[:manifestHeaderBytes]
	binary.LittleEndian.PutUint32(h[0:], manifestMagic)
	binary.LittleEndian.PutUint16(h[4:], CodecVersion)
	var fl uint16
	if m.Halted {
		fl = 1
	}
	binary.LittleEndian.PutUint16(h[6:], fl)
	binary.LittleEndian.PutUint32(h[8:], uint32(len(m.ErrMsg)))
	binary.LittleEndian.PutUint64(h[12:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(h[20:], uint64(m.ChunkRecords))
	binary.LittleEndian.PutUint32(h[28:], uint32(len(m.Chunks)))
	binary.LittleEndian.PutUint32(h[32:], uint32(len(m.Static)))
	binary.LittleEndian.PutUint32(h[36:], crc32.ChecksumIEEE(buf[manifestHeaderBytes:]))
	return buf
}

// DecodeManifest parses a binary manifest encoding. It rejects bad magic,
// version mismatches, truncation, trailing garbage, table corruption, and
// any internal inconsistency (chunk rows that do not sum to the total,
// oversized chunks, a byte count no rows can have, a non-power-of-two
// chunk size, a static entry no capture writes, a chunk that continues at
// a pc the static table does not hold) — a damaged or stale manifest must
// read as a cache miss, never as a wrong chunk plan.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if len(data) < manifestHeaderBytes {
		return m, fmt.Errorf("trace: short manifest header (%d bytes)", len(data))
	}
	if mg := binary.LittleEndian.Uint32(data[0:]); mg != manifestMagic {
		return m, fmt.Errorf("trace: bad manifest magic %#x", mg)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != CodecVersion {
		return m, fmt.Errorf("trace: manifest codec version %d, want %d", v, CodecVersion)
	}
	fl := binary.LittleEndian.Uint16(data[6:])
	if fl > 1 {
		return m, fmt.Errorf("trace: unknown manifest flags %#x", fl)
	}
	errLen := int64(binary.LittleEndian.Uint32(data[8:]))
	rows := int64(binary.LittleEndian.Uint64(data[12:]))
	chunkRecords := int64(binary.LittleEndian.Uint64(data[20:]))
	count := int64(binary.LittleEndian.Uint32(data[28:]))
	statics := int64(binary.LittleEndian.Uint32(data[32:]))
	if rows < 0 || chunkRecords < minChunkRecords || chunkRecords > maxChunkRecords ||
		chunkRecords&(chunkRecords-1) != 0 {
		return m, fmt.Errorf("trace: implausible manifest geometry (rows=%d chunkRecords=%d)", rows, chunkRecords)
	}
	if count != (rows+chunkRecords-1)/chunkRecords {
		return m, fmt.Errorf("trace: manifest chunk count %d does not cover %d rows", count, rows)
	}
	want := manifestHeaderBytes + errLen + staticInstBytes*statics + chunkInfoBytes*count
	if int64(len(data)) != want {
		return m, fmt.Errorf("trace: manifest is %d bytes, want %d", len(data), want)
	}
	body := data[manifestHeaderBytes:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[36:]) {
		return m, fmt.Errorf("trace: manifest table checksum mismatch")
	}
	m.Halted = fl&1 != 0
	m.Rows = rows
	m.ChunkRecords = chunkRecords
	m.ErrMsg = string(body[:errLen])
	body = body[errLen:]
	m.Static = make([]StaticInst, statics)
	for i := range m.Static {
		e := body[staticInstBytes*i:]
		m.Static[i] = StaticInst{
			MGID:  int32(binary.LittleEndian.Uint32(e[0:])),
			Flags: binary.LittleEndian.Uint16(e[4:]),
			Op:    e[6], NSrcs: e[7], Srcs: [2]uint8{e[8], e[9]}, Dest: e[10], MemSize: e[11],
		}
	}
	table := body[staticInstBytes*statics:]
	m.Chunks = make([]ChunkInfo, count)
	var sum int64
	for i := range m.Chunks {
		e := table[chunkInfoBytes*i:]
		r := int64(binary.LittleEndian.Uint32(e[0:]))
		if r <= 0 || r > chunkRecords {
			return m, fmt.Errorf("trace: manifest chunk %d has %d rows (chunk size %d)", i, r, chunkRecords)
		}
		if int64(i) < count-1 && r != chunkRecords {
			return m, fmt.Errorf("trace: manifest chunk %d is short (%d rows) but not last", i, r)
		}
		m.Chunks[i] = ChunkInfo{
			Rows:   r,
			Bytes:  int64(binary.LittleEndian.Uint32(e[4:])),
			CRC:    binary.LittleEndian.Uint32(e[8:]),
			NextPC: int64(binary.LittleEndian.Uint64(e[12:])),
		}
		sum += r
	}
	if sum != rows {
		return m, fmt.Errorf("trace: manifest chunk rows sum to %d, want %d", sum, rows)
	}
	return m, m.check()
}

// EncodeChunk renders one sealed chunk's raw rows as a self-describing,
// individually verifiable frame. With compress set the payload is
// DEFLATE-compressed when that actually shrinks it (an incompressible
// chunk is stored raw, so compression can only help); the frame's CRC is
// always of the raw rows, matching the manifest's entry for the chunk.
func EncodeChunk(index int64, raw []byte, compress bool) []byte {
	payload := raw
	var fl uint16
	if compress && len(raw) > 0 {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err == nil {
			if _, err := zw.Write(raw); err == nil && zw.Close() == nil && buf.Len() < len(raw) {
				payload = buf.Bytes()
				fl |= chunkFlagFlate
			}
		}
	}
	out := make([]byte, 0, chunkHeaderBytes+len(payload))
	var h [chunkHeaderBytes]byte
	binary.LittleEndian.PutUint32(h[0:], chunkMagic)
	binary.LittleEndian.PutUint16(h[4:], CodecVersion)
	binary.LittleEndian.PutUint16(h[6:], fl)
	binary.LittleEndian.PutUint32(h[8:], uint32(index))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(h[16:], crc32.ChecksumIEEE(raw))
	binary.LittleEndian.PutUint32(h[20:], uint32(len(payload)))
	out = append(out, h[:]...)
	out = append(out, payload...)
	return out
}

// DecodeChunk parses a chunk frame, decompressing if needed, and verifies
// it end to end: magic, version, frame length, raw length, and the
// raw-payload CRC. The returned slice is freshly allocated (never aliases
// data), with the spare capacity a resident chunk keeps, so making it
// resident copies nothing.
func DecodeChunk(data []byte) (index int64, raw []byte, err error) {
	if len(data) < chunkHeaderBytes {
		return 0, nil, fmt.Errorf("trace: short chunk header (%d bytes)", len(data))
	}
	if mg := binary.LittleEndian.Uint32(data[0:]); mg != chunkMagic {
		return 0, nil, fmt.Errorf("trace: bad chunk magic %#x", mg)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != CodecVersion {
		return 0, nil, fmt.Errorf("trace: chunk codec version %d, want %d", v, CodecVersion)
	}
	fl := binary.LittleEndian.Uint16(data[6:])
	if fl&^chunkFlagFlate != 0 {
		return 0, nil, fmt.Errorf("trace: unknown chunk flags %#x", fl)
	}
	index = int64(binary.LittleEndian.Uint32(data[8:]))
	rawLen := int64(binary.LittleEndian.Uint32(data[12:]))
	wantCRC := binary.LittleEndian.Uint32(data[16:])
	encLen := int64(binary.LittleEndian.Uint32(data[20:]))
	if int64(len(data)) != chunkHeaderBytes+encLen {
		return 0, nil, fmt.Errorf("trace: chunk frame is %d bytes, want %d", len(data), chunkHeaderBytes+encLen)
	}
	payload := data[chunkHeaderBytes:]
	if fl&chunkFlagFlate != 0 {
		// The raw length sizes the inflate buffer, and it arrives from the
		// wire. DEFLATE expands at most ~1032x, so a header claiming more
		// bytes than the payload could possibly inflate to is a memory
		// bomb, not a chunk — reject it before allocating anything.
		if rawLen > encLen*1032+64 {
			return 0, nil, fmt.Errorf("trace: chunk claims %d bytes from %d compressed bytes", rawLen, encLen)
		}
		zr := flate.NewReader(bytes.NewReader(payload))
		raw = make([]byte, 0, rawLen+loadSlack)
		var rerr error
		raw, rerr = appendAll(raw, zr, rawLen)
		_ = zr.Close()
		if rerr != nil {
			return 0, nil, fmt.Errorf("trace: chunk inflate: %w", rerr)
		}
	} else {
		raw = append(make([]byte, 0, len(payload)+loadSlack), payload...)
	}
	if int64(len(raw)) != rawLen {
		return 0, nil, fmt.Errorf("trace: chunk holds %d bytes, header claims %d", len(raw), rawLen)
	}
	if crc32.ChecksumIEEE(raw) != wantCRC {
		return 0, nil, fmt.Errorf("trace: chunk payload checksum mismatch")
	}
	return index, raw, nil
}

// appendAll reads r to EOF into dst, refusing to grow past limit+1 bytes
// (a frame whose inflated size disagrees with its header must fail
// cleanly, not allocate unboundedly).
func appendAll(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	var buf [32 << 10]byte
	for {
		n, err := r.Read(buf[:])
		dst = append(dst, buf[:n]...)
		if int64(len(dst)) > limit {
			return dst, fmt.Errorf("inflated payload exceeds %d declared bytes", limit)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// chunk is one sealed chunk as memory holds it: its packed rows, with at
// least loadSlack bytes of spare capacity past them, and, once resident,
// the offset and pc of every indexStride-th row. The index is derived from
// the rows when the chunk becomes resident — never stored or sent — so no
// stored index can disagree with the rows it indexes.
type chunk struct {
	rows  []byte
	index []indexEntry
}

// indexEntry locates one indexed row: its byte offset in the payload and
// its pc (an executed pc, so an int32 holds it).
type indexEntry struct {
	off uint32
	pc  int32
}

// indexEntryBytes is the memory one indexEntry takes.
const indexEntryBytes = 8

// heldBytes is the memory c pins.
func (c chunk) heldBytes() int64 {
	return int64(cap(c.rows)) + indexEntryBytes*int64(cap(c.index))
}

// resident checks data as chunk ci's rows and indexes them, in one pass
// that reads every field with the decoder's own varint and checks what the
// decoder takes on trust: the first pc is executed and, past chunk 0, is
// the previous chunk's manifest NextPC; every field is a minimal varint
// inside the payload; every row's continuation is an executed pc, the last
// row's the manifest's NextPC; and the rows tile data exactly in the
// manifest's row count. Data that passes can be decoded with no further
// check; data that does not is damage its CRC did not see — the CRC only
// says the bytes are the ones the manifest's author checksummed — and the
// chunk reads as ErrChunkUnavailable as a whole. data without loadSlack
// spare bytes of capacity is copied once into a buffer that has them.
func (t *Trace) resident(ci int64, data []byte) (chunk, error) {
	if cap(data)-len(data) < loadSlack {
		data = append(make([]byte, 0, len(data)+loadSlack), data...)
	}
	b, rows := data[:len(data)+loadSlack], t.info[ci].Rows
	index := make([]indexEntry, (rows+indexStride-1)/indexStride)
	// field reads one varint at off, which must lie inside the payload and
	// be minimal.
	off, bad := 0, false
	field := func() uint64 {
		if off >= len(data) || off+1+bits.TrailingZeros8(^data[off]) > len(data) {
			bad = true
			return 0
		}
		v, next := varint(b, off)
		bad = bad || !varintFits(v, next-off)
		off = next
		return v
	}
	pc := isa.PC(field())
	if bad {
		return chunk{}, fmt.Errorf("%w: chunk %d does not open with a pc", ErrChunkUnavailable, ci)
	}
	if ci > 0 && int64(pc) != t.info[ci-1].NextPC {
		return chunk{}, fmt.Errorf("%w: chunk %d opens at pc %d, chunk %d continues at %d", ErrChunkUnavailable, ci, pc, ci-1, t.info[ci-1].NextPC)
	}
	for r := int64(0); r < rows; r++ {
		if !t.executed(pc) {
			return chunk{}, fmt.Errorf("%w: chunk %d row %d is at pc %d, which the static table does not hold", ErrChunkUnavailable, ci, r, pc)
		}
		if r%indexStride == 0 {
			index[r/indexStride] = indexEntry{uint32(off), int32(pc)}
		}
		f, next := t.fields[pc], pc+1
		if f&fieldCtrl != 0 {
			next = continuation(pc, field())
		}
		for v := f &^ fieldCtrl; v != 0; v &= v - 1 {
			field()
		}
		if bad {
			return chunk{}, fmt.Errorf("%w: chunk %d row %d (pc %d) has a field that is truncated, not minimal or past the end of the payload", ErrChunkUnavailable, ci, r, pc)
		}
		pc = next
	}
	if int64(pc) != t.info[ci].NextPC {
		return chunk{}, fmt.Errorf("%w: chunk %d's last row continues at pc %d, the manifest says %d", ErrChunkUnavailable, ci, pc, t.info[ci].NextPC)
	}
	if off != len(data) {
		return chunk{}, fmt.Errorf("%w: chunk %d has %d bytes after its %d rows", ErrChunkUnavailable, ci, len(data)-off, rows)
	}
	return chunk{rows: data, index: index}, nil
}

// WindowStats reports one window's activity — a solo reader's or a
// gang's: chunks faulted in through the ChunkSource, chunks evicted to
// stay inside the window, and the peak bytes (rows and index) the window
// held resident at any moment.
type WindowStats struct {
	Faults    int64
	Evictions int64
	PeakBytes int64
}

// chunkWindow is the bounded cache of spilled chunks behind one reader,
// or shared by every cursor of one gang, over a trace bound to a program.
// Chunks the Trace itself retains are served directly and cost the window
// nothing; only spilled chunks are faulted in (verified against the
// manifest, checked and indexed) and LRU-evicted beyond max. Each cursor
// decodes through its own decoder and pins at most the one chunk under it,
// which the window may already have evicted: k cursors over a window of
// max chunks keep at most max + k alive, and PeakBytes counts the
// window's own. A window is not safe for concurrent use — sharing across
// goroutines happens at the immutable Trace, not here.
type chunkWindow struct {
	t      *Trace
	prog   *isa.Program
	misfit error // t's static table does not fit prog: nothing is served

	max   int // max faulted chunks held resident (<= 0: unbounded)
	cache map[int64]chunk
	order []int64 // least recently touched first
	bytes int64
	stats WindowStats

	// shared counts the records cursors read from a chunk the window
	// already held when they entered it (see GangReader.SharedRecords).
	shared int64
}

func newChunkWindow(t *Trace, prog *isa.Program, maxChunks int) *chunkWindow {
	return &chunkWindow{t: t, prog: prog, misfit: t.fits(prog), max: maxChunks}
}

// open is what every cursor over the window starts from: how many
// records a cursor limited to limit (<= 0: no limit) may serve, and the
// error it reports once they are served. The live stream only hits the
// fault that truncated the capture when asked to generate past it, so a
// caller whose limit stops at or before the truncation point never
// observes the error.
func (w *chunkWindow) open(limit int64) (serve int64, err error) {
	if w.misfit != nil {
		return 0, w.misfit
	}
	if limit > 0 && limit <= w.t.n {
		return limit, nil
	}
	return w.t.n, w.t.Err()
}

// decoder is one cursor's row decoder over a window: the chunk under the
// cursor — rows [base, end), its payload extended to its spare capacity,
// and its index — and the position in it: the row of record at starts at
// byte off and is at pc. Sequential decoding reads the next row where the
// last one ended, at the pc it continued to, so the per-record path is no
// lookup at all.
type decoder struct {
	w         *chunkWindow
	rows      []byte
	index     []indexEntry
	base, end int64
	at        int64
	off       int
	pc        isa.PC
	held      bool // cur came from the window, not from this cursor's fault
}

// fill decodes the record at seq into dst, faulting in its chunk if
// necessary. Every field is written, so dst may be reused across calls
// without clearing. Inst is resolved through the bound program — the same
// lookup the live emulator performs — so a Trace can be bound to any
// structurally identical copy of the program it was captured from. The
// row needs no check of its own: its chunk was checked whole when it
// became resident, and a chunk that failed reads as ErrChunkUnavailable.
func (d *decoder) fill(dst *emu.Record, seq int64) error {
	if seq != d.at || seq >= d.end {
		if err := d.seek(seq); err != nil {
			return err
		}
	}
	t, rows, pc, off := d.w.t, d.rows, d.pc, d.off
	f := t.fields[pc]
	*dst = t.static[pc]
	dst.Seq = seq
	dst.Inst = &d.w.prog.Insts[pc]
	next := pc + 1
	if f&fieldCtrl != 0 {
		var w uint64
		w, off = varint(rows, off)
		dst.Taken, next = w != 0, continuation(pc, w)
	}
	if f&fieldEA != 0 {
		var v uint64
		v, off = varint(rows, off)
		dst.EA = isa.Addr(v)
	}
	if f&fieldDest != 0 {
		dst.DestVal, off = varint(rows, off)
	}
	if f&fieldStore != 0 {
		dst.StoreVal, off = varint(rows, off)
	}
	dst.NextPC = next
	if d.held {
		d.w.shared++
	}
	d.at, d.off, d.pc = seq+1, off, next
	return nil
}

// seek moves the decoder to seq: into seq's chunk if it is not the one
// under it, then to the indexed row at or before seq, then row by row —
// fewer than indexStride steps — to seq itself.
func (d *decoder) seek(seq int64) error {
	t := d.w.t
	if seq < d.base || seq >= d.end {
		ci := seq >> t.chunkShift
		c, held, err := d.w.chunk(ci)
		if err != nil {
			return err
		}
		d.rows, d.index, d.held, d.base = c.rows[:len(c.rows)+loadSlack], c.index, held, ci<<t.chunkShift
		d.end = d.base + t.info[ci].Rows
	}
	k := (seq - d.base) / indexStride
	e := d.index[k]
	d.at, d.off, d.pc = d.base+k*indexStride, int(e.off), isa.PC(e.pc)
	for ; d.at < seq; d.at++ {
		f, next := t.fields[d.pc], d.pc+1
		if f&fieldCtrl != 0 {
			var w uint64
			w, d.off = varint(d.rows, d.off)
			next = continuation(d.pc, w)
		}
		for v := f &^ fieldCtrl; v != 0; v &= v - 1 {
			d.off += 1 + bits.TrailingZeros8(^d.rows[d.off])
		}
		d.pc = next
	}
	return nil
}

// chunk returns chunk ci resident and indexed, faulting it in through the
// trace's source if neither the trace nor the window holds it; held says
// the window already held it. Every byte served has passed the manifest's
// byte count and CRC and the row check — a source that returns damaged or
// wrong-length bytes reads as ErrChunkUnavailable, never as wrong records.
func (w *chunkWindow) chunk(ci int64) (c chunk, held bool, err error) {
	if c := w.t.chunks[ci]; c.rows != nil {
		return c, false, nil
	}
	if c, ok := w.cache[ci]; ok {
		w.touch(ci)
		return c, true, nil
	}
	if c, err = w.t.fault(ci); err != nil {
		return chunk{}, false, err
	}
	if w.cache == nil {
		w.cache = make(map[int64]chunk)
	}
	// Evict before inserting so residency never exceeds max chunks, even
	// transiently — PeakBytes ≤ max × chunk bytes is the bound callers
	// provision real memory against.
	for w.max > 0 && len(w.cache) >= w.max {
		victim := w.order[0]
		w.order = w.order[:copy(w.order, w.order[1:])]
		w.bytes -= w.cache[victim].heldBytes()
		delete(w.cache, victim)
		w.stats.Evictions++
	}
	w.cache[ci] = c
	w.order = append(w.order, ci)
	w.bytes += c.heldBytes()
	w.stats.Faults++
	if w.bytes > w.stats.PeakBytes {
		w.stats.PeakBytes = w.bytes
	}
	return c, false, nil
}

// touch marks ci most recently used, in place.
func (w *chunkWindow) touch(ci int64) {
	for i, k := range w.order {
		if k == ci {
			copy(w.order[i:], w.order[i+1:])
			w.order[len(w.order)-1] = ci
			return
		}
	}
}
