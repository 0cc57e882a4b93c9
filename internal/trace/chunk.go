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
// sequence of fixed-size chunks (a power-of-two record count per chunk,
// DefaultChunkRecords unless overridden at capture). The chunk is the unit
// of everything the substrate does with trace data:
//
//   - capture seals one chunk at a time and can spill sealed chunks
//     through a ChunkSink instead of retaining them, so capturing a trace
//     never needs more than one open chunk of memory;
//   - each chunk carries its own CRC, so damage is detected — and
//     re-fetched or re-captured — per chunk, not per multi-GB blob;
//   - the persistent store holds one entry per chunk plus a Manifest
//     entry naming them, so a cold process (or a peer transfer) moves and
//     verifies the trace chunk by chunk;
//   - Readers hold a bounded window of resident chunks and fault evicted
//     ones back in through a ChunkSource, so replay memory is bounded by
//     the window, not the trace. Rewind stays unbounded: rewinding past
//     the window merely re-faults old chunks, it never clamps.
const (
	// DefaultChunkRecords is the records-per-chunk default (~64Ki rows,
	// 1.75 MiB of packed rows per chunk).
	DefaultChunkRecords = 1 << 16

	// minChunkRecords floors the records-per-chunk override. Tiny chunks
	// exist so tests can cross many chunk boundaries cheaply; below this
	// the per-chunk framing overhead stops being meaningful.
	minChunkRecords = 1 << 4
)

// normalizeChunkRecords rounds n up to a power of two within
// [minChunkRecords, 2^30], with 0 (and negatives) selecting the default.
func normalizeChunkRecords(n int64) int64 {
	if n <= 0 {
		return DefaultChunkRecords
	}
	if n < minChunkRecords {
		n = minChunkRecords
	}
	if n > 1<<30 {
		n = 1 << 30
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
// (see Trace.BindSource). The returned bytes are CRC-verified against the
// trace's manifest by the caller, so a source only moves bytes. Sources
// must be safe for concurrent use — every Reader over a spilled trace
// faults through the one bound source.
type ChunkSource interface {
	FetchChunk(index int64) ([]byte, error)
}

// ChunkInfo is one manifest entry: the row count and payload CRC of one
// sealed chunk, and the NextPC of its last row — the one NextPC the rows
// themselves cannot supply, since a row's successor is the next row. It
// is full width because the trace's last record may leave the program
// entirely (the step after it faults at fetch).
type ChunkInfo struct {
	Rows   int64
	CRC    uint32
	NextPC int64
}

// Manifest describes a chunked trace without its rows: total rows,
// records per chunk, capture termination state, the static table (one
// StaticInst per static instruction, indexed by pc), and the per-chunk
// row counts, checksums and next pcs. It is the unit the store persists
// under the trace's key — chunk payloads live in their own entries — and
// what a peer transfer fetches first to know what to stream; with the
// static table in it, rows plus manifest are the whole trace.
type Manifest struct {
	ChunkRecords int64
	Rows         int64
	Halted       bool
	ErrMsg       string
	Static       []StaticInst
	Chunks       []ChunkInfo
}

// checkStatic rejects a static table or a chunk chain no capture writes:
// unknown flags, more than two sources, an unexecuted entry that is not
// all zero, or a chunk other than the last whose NextPC — the pc of the
// row that follows it — is not an executed entry. Only the last chunk can
// point outside the program.
func (m Manifest) checkStatic() error {
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
// (rows u32 | crc u32 | nextPC i64). crc is the IEEE CRC-32 of everything
// after the header: errMsg, the static table and the chunk table.
const manifestHeaderBytes = 4 + 2 + 2 + 4 + 8 + 8 + 4 + 4 + 4

// chunkInfoBytes is one chunk-table entry of an encoded manifest.
const chunkInfoBytes = 4 + 4 + 8

// chunkHeaderBytes: magic(4) version(2) flags(2) index(4) rows(4)
// rawCRC(4) encLen(4), then encLen payload bytes (raw packed rows, or a
// DEFLATE stream of them when chunkFlagFlate is set). rawCRC is always
// the CRC of the *uncompressed* rows — the manifest and the frame agree
// on one checksum no matter how the payload traveled.
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
// oversized chunks, a non-power-of-two chunk size, a static entry no
// capture writes, a chunk that continues at a pc the static table does
// not hold) — a damaged or stale manifest must read as a cache miss,
// never as a wrong chunk plan.
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
	if rows < 0 || chunkRecords < minChunkRecords || chunkRecords > 1<<30 ||
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
		m.Chunks[i] = ChunkInfo{Rows: r, CRC: binary.LittleEndian.Uint32(e[4:]), NextPC: int64(binary.LittleEndian.Uint64(e[8:]))}
		sum += r
	}
	if sum != rows {
		return m, fmt.Errorf("trace: manifest chunk rows sum to %d, want %d", sum, rows)
	}
	return m, m.checkStatic()
}

// EncodeChunk renders one sealed chunk's raw rows as a self-describing,
// individually verifiable frame. With compress set the payload is
// DEFLATE-compressed when that actually shrinks it (an incompressible
// chunk is stored raw, so compression can only help); the frame's CRC is
// always of the raw rows, matching the manifest's entry for the chunk.
func EncodeChunk(index int64, raw []byte, compress bool) []byte {
	if len(raw)%recordBytes != 0 {
		panic(fmt.Sprintf("trace: chunk payload %d bytes is not whole rows", len(raw)))
	}
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
	binary.LittleEndian.PutUint32(h[12:], uint32(len(raw)/recordBytes))
	binary.LittleEndian.PutUint32(h[16:], crc32.ChecksumIEEE(raw))
	binary.LittleEndian.PutUint32(h[20:], uint32(len(payload)))
	out = append(out, h[:]...)
	out = append(out, payload...)
	return out
}

// DecodeChunk parses a chunk frame, decompressing if needed, and verifies
// it end to end: magic, version, length, whole rows, and the raw-payload
// CRC. The returned slice is freshly allocated (never aliases data).
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
	rows := int64(binary.LittleEndian.Uint32(data[12:]))
	wantCRC := binary.LittleEndian.Uint32(data[16:])
	encLen := int64(binary.LittleEndian.Uint32(data[20:]))
	if int64(len(data)) != chunkHeaderBytes+encLen {
		return 0, nil, fmt.Errorf("trace: chunk frame is %d bytes, want %d", len(data), chunkHeaderBytes+encLen)
	}
	payload := data[chunkHeaderBytes:]
	if fl&chunkFlagFlate != 0 {
		// The row count sizes the inflate buffer, and it arrives from the
		// wire. DEFLATE expands at most ~1032x, so a header claiming more
		// rows than the payload could possibly inflate to is a memory
		// bomb, not a chunk — reject it before allocating anything.
		if rows*recordBytes > encLen*1032+64 {
			return 0, nil, fmt.Errorf("trace: chunk claims %d rows from %d compressed bytes", rows, encLen)
		}
		zr := flate.NewReader(bytes.NewReader(payload))
		raw = make([]byte, 0, rows*recordBytes)
		var rerr error
		raw, rerr = appendAll(raw, zr, rows*recordBytes)
		_ = zr.Close()
		if rerr != nil {
			return 0, nil, fmt.Errorf("trace: chunk inflate: %w", rerr)
		}
	} else {
		raw = append([]byte(nil), payload...)
	}
	if int64(len(raw)) != rows*recordBytes {
		return 0, nil, fmt.Errorf("trace: chunk holds %d bytes, header claims %d rows", len(raw), rows)
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

// WindowStats reports one reader's bounded-window activity: chunks
// faulted in through the ChunkSource, chunks evicted to stay inside the
// window, and the peak bytes the window held resident at any moment.
type WindowStats struct {
	Faults    int64
	Evictions int64
	PeakBytes int64
}

// chunkWindow is one reader's (or one gang's) view of a trace bound to a
// program: the row decoder, over a bounded cache of non-resident chunk
// payloads. Chunks the Trace itself retains are served directly and cost
// the window nothing; only spilled chunks are faulted in (CRC-verified
// against the manifest) and LRU-evicted beyond max. A window is not safe
// for concurrent use — sharing happens at the immutable Trace, not here.
type chunkWindow struct {
	t      *Trace
	prog   *isa.Program
	misfit error // t's static table does not fit prog: nothing is served

	max   int // max faulted chunks held resident (<= 0: unbounded)
	cache map[int64][]byte
	order []int64 // least recently touched first
	bytes int64
	stats WindowStats

	// The chunk under the last decoded record — rows [base, end) and the
	// NextPC of the last of them — so the per-record path is one
	// bounds-checked slice and no lookup, as it was when the trace was a
	// single flat buffer.
	cur       []byte
	base, end int64
	next      isa.PC
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

// fill decodes the record at seq into dst, faulting in its chunk if
// necessary. Every field is written, so dst may be reused across calls
// without clearing. Inst is resolved through the bound program — the same
// lookup the live emulator performs — so a Trace can be bound to any
// structurally identical copy of the program it was captured from. A row
// whose pc (or whose successor's) the static table does not hold is
// damage the chunk CRC did not see; it reads as ErrChunkUnavailable, not
// as a record.
func (w *chunkWindow) fill(dst *emu.Record, seq int64) error {
	if seq < w.base || seq >= w.end {
		ci := seq >> w.t.chunkShift
		data, err := w.rows(ci)
		if err != nil {
			return err
		}
		w.cur, w.base, w.next = data, ci<<w.t.chunkShift, w.t.nexts[ci]
		w.end = w.base + int64(len(data))/recordBytes
	}
	rows := w.cur[(seq-w.base)*recordBytes:]
	word := binary.LittleEndian.Uint32(rows)
	pc, next := isa.PC(word&^takenBit), w.next
	if len(rows) > recordBytes {
		next = isa.PC(binary.LittleEndian.Uint32(rows[recordBytes:]) &^ takenBit)
		if !w.t.executed(next) {
			return fmt.Errorf("%w: record %d is followed by pc %d, which the static table does not hold", ErrChunkUnavailable, seq, next)
		}
	}
	if !w.t.executed(pc) {
		return fmt.Errorf("%w: record %d names pc %d, which the static table does not hold", ErrChunkUnavailable, seq, pc)
	}
	rows = rows[:recordBytes:recordBytes]
	*dst = w.t.static[pc]
	dst.Seq = seq
	dst.Inst = &w.prog.Insts[pc]
	dst.EA = isa.Addr(binary.LittleEndian.Uint64(rows[4:]))
	dst.Taken = word&takenBit != 0
	dst.NextPC = next
	dst.DestVal = binary.LittleEndian.Uint64(rows[12:])
	dst.StoreVal = binary.LittleEndian.Uint64(rows[20:])
	return nil
}

// rows returns chunk ci's raw packed rows, faulting through the trace's
// source if the chunk is not resident. Every byte served has passed the
// manifest CRC — a source that returns damaged or wrong-length bytes
// reads as ErrChunkUnavailable, never as wrong records.
func (w *chunkWindow) rows(ci int64) ([]byte, error) {
	if data := w.t.chunks[ci]; data != nil {
		return data, nil
	}
	if data, ok := w.cache[ci]; ok {
		w.touch(ci)
		return data, nil
	}
	data, err := w.t.ChunkPayload(ci)
	if err != nil {
		return nil, err
	}
	if w.cache == nil {
		w.cache = make(map[int64][]byte)
	}
	// Evict before inserting so residency never exceeds max chunks, even
	// transiently — PeakBytes ≤ max × chunk bytes is the bound callers
	// provision real memory against.
	for w.max > 0 && len(w.cache) >= w.max {
		victim := w.order[0]
		w.order = w.order[:copy(w.order, w.order[1:])]
		w.bytes -= int64(len(w.cache[victim]))
		delete(w.cache, victim)
		w.stats.Evictions++
	}
	w.cache[ci] = data
	w.order = append(w.order, ci)
	w.bytes += int64(len(data))
	w.stats.Faults++
	if w.bytes > w.stats.PeakBytes {
		w.stats.PeakBytes = w.bytes
	}
	return data, nil
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
