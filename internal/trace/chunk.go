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
	// ~2.7 MiB of packed rows per chunk).
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
// sealed chunk.
type ChunkInfo struct {
	Rows int64
	CRC  uint32
}

// Manifest describes a chunked trace without its payload: total rows,
// records per chunk, capture termination state, and the per-chunk row
// counts and checksums. It is the unit the store persists under the
// trace's key — chunk payloads live in their own entries — and what a
// peer transfer fetches first to know what to stream.
type Manifest struct {
	ChunkRecords int64
	Rows         int64
	Halted       bool
	ErrMsg       string
	Chunks       []ChunkInfo
}

// manifestMagic tags a manifest encoding ("MGTM", little-endian).
const manifestMagic uint32 = 0x4d54474d

// chunkMagic tags a chunk frame ("MGTC", little-endian).
const chunkMagic uint32 = 0x4354474d

// chunkFlagFlate marks a chunk frame whose payload is DEFLATE-compressed.
const chunkFlagFlate uint16 = 1 << 0

// manifestHeaderBytes: magic(4) version(2) flags(2: bit0 halted)
// errLen(4) rows(8) chunkRecords(8) chunkCount(4) crc(4), then errMsg,
// then chunkCount × (rows u32 | crc u32). crc is the IEEE CRC-32 of
// errMsg followed by the chunk table.
const manifestHeaderBytes = 4 + 2 + 2 + 4 + 8 + 8 + 4 + 4

// chunkHeaderBytes: magic(4) version(2) flags(2) index(4) rows(4)
// rawCRC(4) encLen(4), then encLen payload bytes (raw packed rows, or a
// DEFLATE stream of them when chunkFlagFlate is set). rawCRC is always
// the CRC of the *uncompressed* rows — the manifest and the frame agree
// on one checksum no matter how the payload traveled.
const chunkHeaderBytes = 4 + 2 + 2 + 4 + 4 + 4 + 4

// EncodeManifest renders m in the versioned binary manifest encoding.
// The encoding is canonical: equal manifests encode to equal bytes.
func EncodeManifest(m Manifest) []byte {
	table := make([]byte, 0, 8*len(m.Chunks))
	for _, c := range m.Chunks {
		var row [8]byte
		binary.LittleEndian.PutUint32(row[0:], uint32(c.Rows))
		binary.LittleEndian.PutUint32(row[4:], c.CRC)
		table = append(table, row[:]...)
	}
	crc := crc32.ChecksumIEEE([]byte(m.ErrMsg))
	crc = crc32.Update(crc, crc32.IEEETable, table)

	buf := make([]byte, 0, manifestHeaderBytes+len(m.ErrMsg)+len(table))
	var h [manifestHeaderBytes]byte
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
	binary.LittleEndian.PutUint32(h[32:], crc)
	buf = append(buf, h[:]...)
	buf = append(buf, m.ErrMsg...)
	buf = append(buf, table...)
	return buf
}

// DecodeManifest parses a binary manifest encoding. It rejects bad magic,
// version mismatches, truncation, trailing garbage, table corruption, and
// any internal inconsistency (chunk rows that do not sum to the total,
// oversized chunks, a non-power-of-two chunk size) — a damaged or stale
// manifest must read as a cache miss, never as a wrong chunk plan.
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
	if rows < 0 || chunkRecords < minChunkRecords || chunkRecords > 1<<30 ||
		chunkRecords&(chunkRecords-1) != 0 {
		return m, fmt.Errorf("trace: implausible manifest geometry (rows=%d chunkRecords=%d)", rows, chunkRecords)
	}
	if count != (rows+chunkRecords-1)/chunkRecords {
		return m, fmt.Errorf("trace: manifest chunk count %d does not cover %d rows", count, rows)
	}
	want := manifestHeaderBytes + errLen + 8*count
	if errLen > int64(len(data)) || int64(len(data)) != want {
		return m, fmt.Errorf("trace: manifest is %d bytes, want %d", len(data), want)
	}
	m.Halted = fl&1 != 0
	m.Rows = rows
	m.ChunkRecords = chunkRecords
	off := int64(manifestHeaderBytes)
	m.ErrMsg = string(data[off : off+errLen])
	off += errLen
	table := data[off:]
	crc := crc32.ChecksumIEEE([]byte(m.ErrMsg))
	crc = crc32.Update(crc, crc32.IEEETable, table)
	if crc != binary.LittleEndian.Uint32(data[32:]) {
		return m, fmt.Errorf("trace: manifest table checksum mismatch")
	}
	m.Chunks = make([]ChunkInfo, count)
	var sum int64
	for i := range m.Chunks {
		r := int64(binary.LittleEndian.Uint32(table[8*i:]))
		if r <= 0 || r > chunkRecords {
			return m, fmt.Errorf("trace: manifest chunk %d has %d rows (chunk size %d)", i, r, chunkRecords)
		}
		if int64(i) < count-1 && r != chunkRecords {
			return m, fmt.Errorf("trace: manifest chunk %d is short (%d rows) but not last", i, r)
		}
		m.Chunks[i] = ChunkInfo{Rows: r, CRC: binary.LittleEndian.Uint32(table[8*i+4:])}
		sum += r
	}
	if sum != rows {
		return m, fmt.Errorf("trace: manifest chunk rows sum to %d, want %d", sum, rows)
	}
	return m, nil
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

// chunkWindow is a bounded per-reader cache of non-resident chunk
// payloads. Chunks the Trace itself retains are served directly and cost
// the window nothing; only spilled chunks are faulted in (CRC-verified
// against the manifest) and LRU-evicted beyond max. A window belongs to
// one reader (or one gang) and is not safe for concurrent use — sharing
// happens at the immutable Trace, not here.
type chunkWindow struct {
	t     *Trace
	max   int // max faulted chunks held resident (<= 0: unbounded)
	cache map[int64][]byte
	order []int64 // least recently touched first
	bytes int64
	stats WindowStats
}

func newChunkWindow(t *Trace, maxChunks int) *chunkWindow {
	return &chunkWindow{t: t, max: maxChunks}
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
		w.order = w.order[1:]
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

// touch marks ci most recently used.
func (w *chunkWindow) touch(ci int64) {
	for i, k := range w.order {
		if k == ci {
			w.order = append(append(w.order[:i:i], w.order[i+1:]...), ci)
			return
		}
	}
}
