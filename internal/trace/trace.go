// Package trace captures a program's dynamic instruction stream once and
// replays it any number of times. The timing simulator in internal/uarch is
// execution-driven but timing-independent of *how* records are delivered:
// internal/emu can generate them live, step by step, or a Reader can replay
// them from an immutable Trace captured earlier. A Trace is a compact
// packed-record encoding of the full record stream — one functional
// emulation serves every machine configuration swept over the same binary,
// which is where multi-arm experiment sweeps spend most of their time.
//
// The record bytes are held as fixed-size chunks (DefaultChunkRecords rows
// per chunk; see chunk.go), which are the unit of capture spill, CRC
// framing, store persistence, peer transfer and reader residency — a trace
// much larger than RAM captures and replays within a bounded chunk window.
//
// Invariant (the golden rule for any TraceSource implementation): replaying
// a trace through the pipeline must produce byte-identical results to the
// live stream. The record sequence is a pure function of the program and
// its mini-graph table, so a capture under one machine configuration is
// valid for every configuration that shares the rewritten binary. Chunking
// is storage layout, never semantics: chunk size and window bounds cannot
// change a single replayed record.
//
// Readers are cheap cursors over shared immutable chunks: concurrent
// simulations replay one Trace with no locking and no per-record
// allocation, and Rewind (squash recovery) is a cursor move with unbounded
// depth — there is no retention window to undersize. A bounded reader
// window only bounds *residency*: rewinding behind it re-faults chunks
// through the trace's ChunkSource, it never clamps.
package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
)

// Flag bits packed per record. The low two bits hold the source-register
// count (0..2).
const (
	flagNSrcsMask uint16 = 0x3
	flagLoad      uint16 = 1 << 2
	flagStore     uint16 = 1 << 3
	flagCtrl      uint16 = 1 << 4
	flagCond      uint16 = 1 << 5
	flagCall      uint16 = 1 << 6
	flagRet       uint16 = 1 << 7
	flagIndirect  uint16 = 1 << 8
	flagTaken     uint16 = 1 << 9
)

// recordBytes is the packed per-record storage: one 43-byte little-endian
// row
//
//	pc u32 | nextPC u32 | mgid i32 | ea u64 | flags u16 |
//	op u8 | src0 u8 | src1 u8 | dest u8 | memSize u8 |
//	destVal u64 | storeVal u64
//
// Rows are packed back to back within a chunk, so capture writes and
// replay reads touch one short contiguous span per record instead of ten
// parallel arrays. Derived Record fields (Seq = index, FallPC = PC+1,
// Inst = prog.At(PC)) are reconstructed at replay rather than stored. The
// architectural value fields ride along so replayed runs fold the same
// retired-state digest as live ones (codec v2; rows were 27 bytes before
// they grew the two u64 value fields).
const recordBytes = 4 + 4 + 4 + 8 + 2 + 5 + 8 + 8

// RecordBytes is the packed row size in bytes, exported so sizing logic
// (cache budgets, window caps) outside the package can reason in bytes.
const RecordBytes = recordBytes

// Trace is an immutable dynamic instruction stream in packed-record form,
// held as fixed-size chunks. A Trace is safe for concurrent Readers once
// built; a chunk is either resident (its payload retained in memory) or
// spilled (payload dropped after sealing through a ChunkSink), in which
// case Readers fault it back in through the bound ChunkSource.
type Trace struct {
	chunkRecords int64 // rows per chunk (power of two)
	chunkShift   uint  // log2(chunkRecords)
	n            int64 // total rows

	// chunks holds each sealed chunk's packed rows; a nil entry is a
	// spilled chunk whose payload lives behind source. crcs is the
	// manifest: the IEEE CRC-32 of each chunk's raw rows, computed at
	// seal time and re-checked on every fault-in.
	chunks [][]byte
	crcs   []uint32
	source ChunkSource

	// cur is the open (unsealed) chunk during capture; nil once built.
	cur []byte

	// errMsg records the architectural fault that truncated the capture
	// ("" = the program halted or the capture limit was reached). A Reader
	// surfaces it exactly as the live stream would: only when the caller's
	// limit would have forced generation past the fault.
	errMsg string
	// halted reports whether the emulated machine reached OpHalt.
	halted bool
}

// Len returns the number of records in the trace.
func (t *Trace) Len() int64 { return t.n }

// Halted reports whether the captured program ran to architectural halt.
func (t *Trace) Halted() bool { return t.halted }

// Err returns the architectural fault that truncated the capture, if any.
func (t *Trace) Err() error {
	if t.errMsg == "" {
		return nil
	}
	return errors.New(t.errMsg)
}

// ChunkRecords returns the rows-per-chunk geometry (a power of two).
func (t *Trace) ChunkRecords() int64 {
	if t.chunkRecords == 0 {
		return DefaultChunkRecords
	}
	return t.chunkRecords
}

// NumChunks returns the number of sealed chunks.
func (t *Trace) NumChunks() int64 { return int64(len(t.chunks)) }

// chunkRows returns the row count of chunk ci (full except the last).
func (t *Trace) chunkRows(ci int64) int64 {
	if r := t.n - ci*t.ChunkRecords(); r < t.ChunkRecords() {
		return r
	}
	return t.ChunkRecords()
}

// ChunkCRC returns the manifest checksum of chunk ci's raw rows.
func (t *Trace) ChunkCRC(ci int64) uint32 { return t.crcs[ci] }

// SizeBytes returns the logical size of the trace: the packed record
// bytes it represents plus the fault message — independent of how many
// chunks happen to be resident right now (see ResidentBytes for that).
func (t *Trace) SizeBytes() int64 {
	return t.n*recordBytes + int64(len(t.errMsg))
}

// ResidentBytes returns the chunk payload bytes currently held in memory
// by the Trace itself (spilled chunks and reader windows excluded). It
// counts capacity, not length: a cache that budgets by this number must be
// charged what the heap holds, and a buffer's unused tail is held too.
func (t *Trace) ResidentBytes() int64 {
	var b int64
	for _, c := range t.chunks {
		b += int64(cap(c))
	}
	return b + int64(cap(t.cur))
}

// Spilled reports whether any chunk's payload is non-resident (replay
// then requires a bound ChunkSource).
func (t *Trace) Spilled() bool {
	for _, c := range t.chunks {
		if c == nil {
			return true
		}
	}
	return false
}

// ChunkResident reports whether chunk ci's payload is held in memory by
// the Trace itself.
func (t *Trace) ChunkResident(ci int64) bool { return t.chunks[ci] != nil }

// Materialize faults every spilled chunk in through the bound source and
// retains it, leaving the trace fully resident (and fully CRC-verified).
// Replay then needs no source at all — how a store load or a peer
// transfer is adopted when no residency bound is in force.
func (t *Trace) Materialize() error {
	for ci := range t.chunks {
		if t.chunks[ci] == nil {
			data, err := t.ChunkPayload(int64(ci))
			if err != nil {
				return err
			}
			t.chunks[ci] = data
		}
	}
	return nil
}

// BindSource attaches the ChunkSource spilled chunks are faulted in from.
// Bind before opening Readers over a spilled trace; rebinding is legal
// (e.g. after the backing store moved). The source must serve exactly the
// bytes that were sealed — every fault-in is CRC-verified against the
// manifest, so a wrong source degrades to ErrChunkUnavailable, never to
// wrong records.
func (t *Trace) BindSource(src ChunkSource) { t.source = src }

// Manifest returns the trace's chunk manifest: geometry, termination
// state, and per-chunk row counts and checksums.
func (t *Trace) Manifest() Manifest {
	m := Manifest{
		ChunkRecords: t.ChunkRecords(),
		Rows:         t.n,
		Halted:       t.halted,
		ErrMsg:       t.errMsg,
		Chunks:       make([]ChunkInfo, len(t.chunks)),
	}
	for i := range t.chunks {
		m.Chunks[i] = ChunkInfo{Rows: t.chunkRows(int64(i)), CRC: t.crcs[i]}
	}
	return m
}

// FromManifest builds a fully spilled Trace from its manifest and the
// source its chunk payloads live behind: every chunk is non-resident
// until a reader faults it in. This is the one way a trace enters a
// process from outside it — the store and a remote peer are both just
// sources behind a manifest — and how a cold process replays a persisted
// trace without ever holding more than a window of it. The result is
// unverified: nothing has been read through src yet.
func FromManifest(m Manifest, src ChunkSource) (*Trace, error) {
	cr := m.ChunkRecords
	if cr < minChunkRecords || cr&(cr-1) != 0 {
		return nil, fmt.Errorf("trace: manifest chunkRecords %d is not a valid power of two", cr)
	}
	if int64(len(m.Chunks)) != (m.Rows+cr-1)/cr {
		return nil, fmt.Errorf("trace: manifest has %d chunks for %d rows", len(m.Chunks), m.Rows)
	}
	t := &Trace{
		chunkRecords: cr,
		chunkShift:   uint(bits.TrailingZeros64(uint64(cr))),
		n:            m.Rows,
		chunks:       make([][]byte, len(m.Chunks)),
		crcs:         make([]uint32, len(m.Chunks)),
		source:       src,
		errMsg:       m.ErrMsg,
		halted:       m.Halted,
	}
	for i, c := range m.Chunks {
		if c.Rows != t.chunkRows(int64(i)) {
			return nil, fmt.Errorf("trace: manifest chunk %d claims %d rows, geometry says %d", i, c.Rows, t.chunkRows(int64(i)))
		}
		t.crcs[i] = c.CRC
	}
	return t, nil
}

// ChunkPayload returns chunk ci's raw packed rows: the resident payload,
// or one fetched (and CRC-verified) through the bound source. Unlike a
// reader window, nothing is cached — this is the persistence/transfer
// path, not the replay path.
func (t *Trace) ChunkPayload(ci int64) ([]byte, error) {
	if ci < 0 || ci >= t.NumChunks() {
		return nil, fmt.Errorf("trace: chunk %d out of range (%d chunks)", ci, t.NumChunks())
	}
	if data := t.chunks[ci]; data != nil {
		return data, nil
	}
	if t.source == nil {
		return nil, fmt.Errorf("%w: chunk %d is not resident and the trace has no source", ErrChunkUnavailable, ci)
	}
	data, err := t.source.FetchChunk(ci)
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %d: %v", ErrChunkUnavailable, ci, err)
	}
	if int64(len(data)) != t.chunkRows(ci)*recordBytes || crc32.ChecksumIEEE(data) != t.crcs[ci] {
		return nil, fmt.Errorf("%w: chunk %d: source payload failed verification", ErrChunkUnavailable, ci)
	}
	return data, nil
}

// appendRecord packs one record into the open chunk. Seq and FallPC are
// derived at replay and not stored; Srcs beyond NSrcs are zero by
// construction.
func (t *Trace) appendRecord(rec *emu.Record) {
	f := uint16(rec.NSrcs) & flagNSrcsMask
	if rec.IsLoad {
		f |= flagLoad
	}
	if rec.IsStore {
		f |= flagStore
	}
	if rec.IsCtrl {
		f |= flagCtrl
	}
	if rec.CondBranch {
		f |= flagCond
	}
	if rec.IsCall {
		f |= flagCall
	}
	if rec.IsRet {
		f |= flagRet
	}
	if rec.Indirect {
		f |= flagIndirect
	}
	if rec.Taken {
		f |= flagTaken
	}
	var row [recordBytes]byte
	binary.LittleEndian.PutUint32(row[0:], uint32(int32(rec.PC)))
	binary.LittleEndian.PutUint32(row[4:], uint32(int32(rec.NextPC)))
	binary.LittleEndian.PutUint32(row[8:], uint32(int32(rec.MGID)))
	binary.LittleEndian.PutUint64(row[12:], uint64(rec.EA))
	binary.LittleEndian.PutUint16(row[20:], f)
	row[22] = uint8(rec.Op)
	row[23] = uint8(rec.Srcs[0])
	row[24] = uint8(rec.Srcs[1])
	row[25] = uint8(rec.Dest)
	row[26] = uint8(rec.MemSize)
	binary.LittleEndian.PutUint64(row[27:], rec.DestVal)
	binary.LittleEndian.PutUint64(row[35:], rec.StoreVal)
	t.cur = append(t.cur, row[:]...)
	t.n++
}

// seal closes the open chunk: records its checksum in the manifest and
// either spills it through sink (dropping the payload) or retains it. A
// sink error keeps the chunk resident — spilling is an optimization, so
// its failure can cost memory but never the capture. A retained chunk is
// held for the trace's lifetime, so a tail chunk that did not fill its
// chunk-sized buffer moves to one of its own size.
func (t *Trace) seal(sink ChunkSink) {
	if len(t.cur) == 0 {
		return
	}
	idx := int64(len(t.chunks))
	crc := crc32.ChecksumIEEE(t.cur)
	t.crcs = append(t.crcs, crc)
	if sink != nil && sink.SealChunk(idx, int64(len(t.cur))/recordBytes, t.cur, crc) == nil {
		t.chunks = append(t.chunks, nil)
	} else {
		if cap(t.cur) > len(t.cur) {
			exact := make([]byte, len(t.cur))
			copy(exact, t.cur)
			t.cur = exact
		}
		t.chunks = append(t.chunks, t.cur)
	}
	t.cur = nil
}

// fillRow reconstructs the record at sequence seq from its packed row
// into dst. Every field is written, so dst may be reused across calls
// without clearing. Inst is resolved through prog — the same lookup the
// live emulator performs — so a Trace can be bound to any structurally
// identical copy of the program it was captured from.
func fillRow(dst *emu.Record, row []byte, seq int64, prog *isa.Program) {
	row = row[:recordBytes:recordBytes]
	pc := isa.PC(int32(binary.LittleEndian.Uint32(row[0:])))
	f := binary.LittleEndian.Uint16(row[20:])
	dst.Seq = seq
	dst.PC = pc
	dst.Op = isa.Opcode(row[22])
	dst.Inst = prog.At(pc)
	dst.Srcs[0] = isa.Reg(row[23])
	dst.Srcs[1] = isa.Reg(row[24])
	dst.NSrcs = int(f & flagNSrcsMask)
	dst.Dest = isa.Reg(row[25])
	dst.EA = isa.Addr(binary.LittleEndian.Uint64(row[12:]))
	dst.MemSize = int(row[26])
	dst.IsLoad = f&flagLoad != 0
	dst.IsStore = f&flagStore != 0
	dst.IsCtrl = f&flagCtrl != 0
	dst.CondBranch = f&flagCond != 0
	dst.IsCall = f&flagCall != 0
	dst.IsRet = f&flagRet != 0
	dst.Indirect = f&flagIndirect != 0
	dst.Taken = f&flagTaken != 0
	dst.NextPC = isa.PC(int32(binary.LittleEndian.Uint32(row[4:])))
	dst.FallPC = pc + 1
	dst.MGID = int(int32(binary.LittleEndian.Uint32(row[8:])))
	dst.DestVal = binary.LittleEndian.Uint64(row[27:])
	dst.StoreVal = binary.LittleEndian.Uint64(row[35:])
}

// captureCheckInterval is how many records elapse between context checks
// during capture.
const captureCheckInterval = 1 << 14

// CaptureOptions tune CaptureWith beyond the defaults.
type CaptureOptions struct {
	// ChunkRecords is the rows-per-chunk geometry, rounded up to a power
	// of two (0 = DefaultChunkRecords). Geometry is storage layout only —
	// it can never change a replayed record.
	ChunkRecords int64
	// Hint is a record-count hint (e.g. a profile's dynamic instruction
	// count): an accurate hint sizes the first chunk's buffer once. The
	// hint only affects allocation, never content.
	Hint int64
	// Sink, when non-nil, receives each chunk as it seals; a successful
	// SealChunk lets capture drop the chunk from memory, so capturing a
	// trace larger than RAM holds at most one open chunk plus whatever
	// the sink buffers. Replaying the returned trace then requires
	// BindSource. Sink errors keep chunks resident (never fail capture).
	Sink ChunkSink
}

// Capture runs prog functionally to completion (halt, architectural fault,
// or limit dynamic records; limit <= 0 means no limit) and returns the
// recorded stream. The limit cut-off matches emu.Stream exactly: the
// emulator is never stepped once limit records exist, so a program that
// would fault at record limit captures cleanly. An architectural fault does
// not fail the capture — it truncates the trace and is surfaced by Readers
// exactly as the live stream surfaces it. The only error Capture itself
// returns is ctx cancellation.
func Capture(ctx context.Context, prog *isa.Program, mgt *core.MGT, limit int64) (*Trace, error) {
	return CaptureWith(ctx, prog, mgt, limit, CaptureOptions{})
}

// CaptureWith is Capture with explicit chunk geometry and an optional
// spill sink; see CaptureOptions.
func CaptureWith(ctx context.Context, prog *isa.Program, mgt *core.MGT, limit int64, opts CaptureOptions) (*Trace, error) {
	if limit <= 0 {
		limit = math.MaxInt64
	}
	cr := normalizeChunkRecords(opts.ChunkRecords)
	t := &Trace{
		chunkRecords: cr,
		chunkShift:   uint(bits.TrailingZeros64(uint64(cr))),
	}
	chunkBytes := cr * recordBytes

	// Size the open chunk's buffer from the hint, capped at one chunk:
	// an accurate hint for a small trace allocates once; a huge trace
	// allocates chunk-sized buffers and recycles nothing bigger.
	hint := opts.Hint
	if hint <= 0 {
		hint = 1 << 12
	}
	if limit < hint {
		hint = limit
	}
	if hint > cr {
		hint = cr
	}
	t.cur = make([]byte, 0, hint*recordBytes)

	m := emu.NewMachine(prog, mgt)
	var rec emu.Record
	for !m.Halted && t.n < limit {
		if t.n%captureCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Geometric growth between checks keeps the append fast path
			// bounds-check-only; an accurate hint makes this a no-op.
			if free := (int64(cap(t.cur)) - int64(len(t.cur))) / recordBytes; free < captureCheckInterval {
				want := 2 * int64(cap(t.cur)) / recordBytes
				if min := int64(len(t.cur))/recordBytes + captureCheckInterval; want < min {
					want = min
				}
				if want > cr {
					want = cr
				}
				if rem := limit - t.n + int64(len(t.cur))/recordBytes; limit < math.MaxInt64 && want > rem {
					want = rem
				}
				if want*recordBytes > int64(cap(t.cur)) {
					grown := make([]byte, len(t.cur), want*recordBytes)
					copy(grown, t.cur)
					t.cur = grown
				}
			}
		}
		if err := m.Step(&rec); err != nil {
			t.errMsg = err.Error()
			t.seal(opts.Sink)
			return t, nil
		}
		t.appendRecord(&rec)
		if int64(len(t.cur)) == chunkBytes {
			t.seal(opts.Sink)
			if t.n < limit && !m.Halted {
				t.cur = make([]byte, 0, chunkBytes)
			}
		}
	}
	t.halted = m.Halted
	t.seal(opts.Sink)
	return t, nil
}

// Reader is a cursor over a Trace implementing the pipeline's TraceSource
// contract with the exact semantics of the live emu.Stream: NextInto
// serves records in order, Rewind re-serves from an earlier sequence
// number (any depth — the trace is fully retained, resident or not), and
// Err reports the architectural fault the stream would have hit. A Reader
// is single-goroutine; open one Reader per concurrent simulation over the
// shared Trace.
//
// Over a spilled trace the Reader holds a bounded window of resident
// chunks (NewReaderWindowed) and faults evicted ones back in through the
// trace's ChunkSource; a source failure surfaces through Err as
// ErrChunkUnavailable after the stream cuts off, mirroring how the live
// stream surfaces an architectural fault.
type Reader struct {
	t       *Trace
	prog    *isa.Program
	win     *chunkWindow
	serve   int64 // records available to this reader (limit-clamped)
	cursor  int64
	err     error
	faultAt int64 // serve value before an I/O cutoff (for Err precedence)

	// rows/rowsBase/rowsEnd cache the chunk under the cursor so the
	// per-record path is one bounds-checked slice, as it was when the
	// trace was a single flat buffer.
	rows     []byte
	rowsBase int64
	rowsEnd  int64

	scratch emu.Record
}

// NewReader opens a cursor over t bound to prog (the program t was
// captured from, or a structurally identical copy). limit bounds served
// records like Config.MaxRecords bounds the live stream (<= 0: no limit).
// The chunk window is unbounded: every chunk faulted in stays resident
// for the reader's lifetime.
func NewReader(t *Trace, prog *isa.Program, limit int64) *Reader {
	return NewReaderWindowed(t, prog, limit, 0)
}

// NewReaderWindowed is NewReader with a bounded resident-chunk window:
// at most windowChunks spilled chunks are held at once (<= 0: unbounded),
// so replay memory is windowChunks × chunk bytes no matter how large the
// trace is. Chunks the Trace itself retains are served directly and do
// not count against the window.
func NewReaderWindowed(t *Trace, prog *isa.Program, limit int64, windowChunks int) *Reader {
	req := limit
	if req <= 0 {
		req = math.MaxInt64
	}
	serve := t.Len()
	if req < serve {
		serve = req
	}
	r := &Reader{t: t, prog: prog, serve: serve, win: newChunkWindow(t, windowChunks)}
	if t.errMsg != "" && req > t.Len() {
		// The live stream only hits the fault when asked to generate past
		// it; a caller whose limit stops at or before the truncation point
		// never observes the error.
		r.err = t.Err()
	}
	return r
}

// WindowStats reports the reader's chunk-window activity (faults,
// evictions, peak resident bytes).
func (r *Reader) WindowStats() WindowStats { return r.win.stats }

// loadChunk points the row cache at the chunk containing seq, faulting it
// in if necessary. On a source failure the stream cuts off at the cursor
// and the failure surfaces through Err.
func (r *Reader) loadChunk(seq int64) bool {
	ci := seq >> r.t.chunkShift
	data, err := r.win.rows(ci)
	if err != nil {
		r.err = err
		r.faultAt = r.serve
		r.serve = r.cursor
		return false
	}
	r.rows = data
	r.rowsBase = ci << r.t.chunkShift
	r.rowsEnd = r.rowsBase + int64(len(data))/recordBytes
	return true
}

// Next returns the record at the cursor, advancing it. ok=false means the
// stream is exhausted (halt, limit, or fault — check Err). The returned
// pointer is the reader's scratch record and is valid until the next call.
func (r *Reader) Next() (*emu.Record, bool) {
	if !r.NextInto(&r.scratch) {
		return nil, false
	}
	return &r.scratch, true
}

// NextInto writes the record at the cursor into dst and advances — the
// pipeline's zero-copy delivery path (the record materialises directly in
// the consumer's storage, no scratch staging).
func (r *Reader) NextInto(dst *emu.Record) bool {
	if r.cursor >= r.serve {
		return false
	}
	if r.cursor < r.rowsBase || r.cursor >= r.rowsEnd {
		if !r.loadChunk(r.cursor) {
			return false
		}
	}
	fillRow(dst, r.rows[(r.cursor-r.rowsBase)*recordBytes:], r.cursor, r.prog)
	r.cursor++
	return true
}

// Cursor returns the sequence number of the next record Next will serve.
func (r *Reader) Cursor() int64 { return r.cursor }

// Err returns the architectural fault that truncated the stream (if this
// reader's limit would have run into it) or the chunk-fetch failure that
// cut the stream off early.
func (r *Reader) Err() error { return r.err }

// Exhausted reports whether every available record has been served.
func (r *Reader) Exhausted() bool { return r.cursor >= r.serve }

// Rewind moves the cursor back to sequence seq. Unlike the live stream's
// bounded retention window, a trace rewind reaches any depth — a bounded
// chunk window re-faults evicted chunks rather than clamping; rewinding
// forward is a simulator bug and panics, matching emu.Stream.
func (r *Reader) Rewind(seq int64) {
	if seq > r.cursor || seq < 0 {
		panic(fmt.Sprintf("trace: rewind out of range (seq=%d cursor=%d)", seq, r.cursor))
	}
	r.cursor = seq
	// A rewind past an I/O cutoff retries the fetch: restore the serve
	// bound so the reader can make progress again if the source recovered.
	if r.faultAt > r.serve && errors.Is(r.err, ErrChunkUnavailable) {
		r.serve, r.faultAt, r.err = r.faultAt, 0, nil
	}
}
