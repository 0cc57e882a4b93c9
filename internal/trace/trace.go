// Package trace captures a program's dynamic instruction stream once and
// replays it any number of times. The timing simulator in internal/uarch is
// execution-driven but timing-independent of *how* records are delivered:
// internal/emu can generate them live, step by step, or a Reader can replay
// them from an immutable Trace captured earlier. A Trace is a compact
// encoding of the full record stream — one functional emulation serves
// every machine configuration swept over the same binary, which is where
// multi-arm experiment sweeps spend most of their time.
//
// A trace stores only what the program text does not. Each record is a
// fixed-width dynamic row (which pc executed, whether it was taken, and
// the three values it produced: effective address, destination value,
// store value); everything that is a function of the pc — opcode,
// operand registers, access size, the load/store/control flags, the
// mini-graph id — lives once per static instruction in the trace's static
// table, filled the first time a pc executes and carried in the Manifest,
// so a trace adopted from a store or a peer replays without the
// mini-graph table that shaped it.
//
// The rows are held as fixed-size chunks (DefaultChunkRecords rows per
// chunk; see chunk.go), which are the unit of capture spill, CRC framing,
// store persistence, peer transfer and reader residency — a trace much
// larger than RAM captures and replays within a bounded chunk window.
//
// Invariant (the golden rule for any TraceSource implementation): replaying
// a trace through the pipeline must produce byte-identical results to the
// live stream. The record sequence is a pure function of the program and
// its mini-graph table, so a capture under one machine configuration is
// valid for every configuration that shares the rewritten binary. Chunking
// is storage layout, never semantics: chunk size and window bounds cannot
// change a single replayed record, and neither can the row format.
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

// recordBytes is the packed per-record storage: one 28-byte little-endian
// dynamic row
//
//	pcWord u32 | ea u64 | destVal u64 | storeVal u64
//
// where pcWord is the record's pc with Taken in bit 31 (a stored pc is
// always inside the program, so the bit is free, and Taken is a stored
// bit because it is not derivable: a conditional branch to its own
// fall-through is taken or not with the same NextPC). Rows are
// fixed-width and packed back to back within a chunk, so seq → byte
// offset is a multiply and Rewind is O(1).
//
// Nothing else is stored per record. The static fields come from the
// static table entry of the row's pc (see StaticInst). NextPC is where the
// stream went next: the pc of the following row, or — for the last row of
// a chunk — the chunk's NextPC in the manifest, which is also the one place
// a NextPC outside the program can live (only a trace's last record can
// have one: the step after it faults at fetch). Seq is the row index,
// FallPC is pc+1 and Inst is the bound program's instruction at pc.
const recordBytes = 4 + 8 + 8 + 8

// RecordBytes is the packed row size in bytes, exported so sizing logic
// (cache budgets, window caps) outside the package can reason in bytes.
const RecordBytes = recordBytes

// takenBit is bit 31 of a row's pcWord.
const takenBit uint32 = 1 << 31

// StaticInst is one static-table entry: everything about a record that is
// a function of its pc alone, under the program and mini-graph table the
// trace was captured with. The table is indexed by pc and has one entry
// per static instruction; an entry without the executed flag belongs to a pc
// the trace never reached and is all zero.
type StaticInst struct {
	MGID    int32 // mini-graph table index for handles, else -1
	Flags   uint16
	Op      uint8
	NSrcs   uint8
	Srcs    [2]uint8
	Dest    uint8
	MemSize uint8
}

// staticInstBytes is a StaticInst on the wire (manifest static table):
// mgid i32 | flags u16 | op u8 | nsrcs u8 | src0 u8 | src1 u8 | dest u8 |
// memSize u8.
const staticInstBytes = 4 + 2 + 6

// StaticInst.Flags bits.
const (
	staticLoad uint16 = 1 << iota
	staticStore
	staticCtrl
	staticCond
	staticCall
	staticRet
	staticIndirect
	staticExecuted // the trace executed this pc; the entry is meaningful

	staticKnownFlags = staticExecuted<<1 - 1
)

// staticOf extracts the static half of rec (a live record or a template).
func staticOf(rec *emu.Record) StaticInst {
	bit := func(on bool, b uint16) uint16 {
		if on {
			return b
		}
		return 0
	}
	return StaticInst{
		MGID: int32(rec.MGID),
		Flags: staticExecuted | bit(rec.IsLoad, staticLoad) | bit(rec.IsStore, staticStore) |
			bit(rec.IsCtrl, staticCtrl) | bit(rec.CondBranch, staticCond) | bit(rec.IsCall, staticCall) |
			bit(rec.IsRet, staticRet) | bit(rec.Indirect, staticIndirect),
		Op:      uint8(rec.Op),
		NSrcs:   uint8(rec.NSrcs),
		Srcs:    [2]uint8{uint8(rec.Srcs[0]), uint8(rec.Srcs[1])},
		Dest:    uint8(rec.Dest),
		MemSize: uint8(rec.MemSize),
	}
}

// unexecuted marks a template no row may name: a valid template's PC is
// its own index in the table.
const unexecuted isa.PC = -1

// template expands s into the ready-made record every row at pc decodes
// from: the static fields set, the dynamic ones zero.
func (s StaticInst) template(pc isa.PC) emu.Record {
	if s.Flags&staticExecuted == 0 {
		return emu.Record{PC: unexecuted}
	}
	return emu.Record{
		PC:         pc,
		Op:         isa.Opcode(s.Op),
		Srcs:       [2]isa.Reg{isa.Reg(s.Srcs[0]), isa.Reg(s.Srcs[1])},
		NSrcs:      int(s.NSrcs),
		Dest:       isa.Reg(s.Dest),
		MemSize:    int(s.MemSize),
		IsLoad:     s.Flags&staticLoad != 0,
		IsStore:    s.Flags&staticStore != 0,
		IsCtrl:     s.Flags&staticCtrl != 0,
		CondBranch: s.Flags&staticCond != 0,
		IsCall:     s.Flags&staticCall != 0,
		IsRet:      s.Flags&staticRet != 0,
		Indirect:   s.Flags&staticIndirect != 0,
		FallPC:     pc + 1,
		MGID:       int(s.MGID),
	}
}

// Trace is an immutable dynamic instruction stream in packed-record form,
// held as fixed-size chunks. A Trace is safe for concurrent Readers once
// built; a chunk is either resident (its payload retained in memory) or
// spilled (payload dropped after sealing through a ChunkSink), in which
// case Readers fault it back in through the bound ChunkSource.
type Trace struct {
	chunkRecords int64 // rows per chunk (power of two)
	chunkShift   uint  // log2(chunkRecords)
	n            int64 // total rows

	// static is the static table as ready-made record templates, indexed
	// by pc: decoding a row is one copy of its pc's template plus the
	// dynamic fields. A pc the trace never executed holds the unexecuted
	// marker. The table is small (one entry per static instruction) and is
	// not counted by SizeBytes or ResidentBytes.
	static []emu.Record

	// chunks holds each sealed chunk's packed rows; a nil entry is a
	// spilled chunk whose payload lives behind source. crcs and nexts are
	// the manifest: the IEEE CRC-32 of each chunk's raw rows, computed at
	// seal time and re-checked on every fault-in, and the NextPC of each
	// chunk's last row.
	chunks [][]byte
	crcs   []uint32
	nexts  []isa.PC
	source ChunkSource

	// cur is the open (unsealed) chunk during capture, nil once built;
	// next is the NextPC of the last record appended to it.
	cur  []byte
	next isa.PC

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

// Manifest returns the trace's manifest: geometry, termination state, the
// static table, and per-chunk row counts, checksums and next pcs.
func (t *Trace) Manifest() Manifest {
	m := Manifest{
		ChunkRecords: t.ChunkRecords(),
		Rows:         t.n,
		Halted:       t.halted,
		ErrMsg:       t.errMsg,
		Static:       make([]StaticInst, len(t.static)),
		Chunks:       make([]ChunkInfo, len(t.chunks)),
	}
	for pc := range t.static {
		if tm := &t.static[pc]; tm.PC == isa.PC(pc) {
			m.Static[pc] = staticOf(tm)
		}
	}
	for i := range t.chunks {
		m.Chunks[i] = ChunkInfo{Rows: t.chunkRows(int64(i)), CRC: t.crcs[i], NextPC: int64(t.nexts[i])}
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
	if err := m.checkStatic(); err != nil {
		return nil, err
	}
	t := &Trace{
		chunkRecords: cr,
		chunkShift:   uint(bits.TrailingZeros64(uint64(cr))),
		n:            m.Rows,
		static:       make([]emu.Record, len(m.Static)),
		chunks:       make([][]byte, len(m.Chunks)),
		crcs:         make([]uint32, len(m.Chunks)),
		nexts:        make([]isa.PC, len(m.Chunks)),
		source:       src,
		errMsg:       m.ErrMsg,
		halted:       m.Halted,
	}
	for pc, s := range m.Static {
		t.static[pc] = s.template(isa.PC(pc))
	}
	for i, c := range m.Chunks {
		if c.Rows != t.chunkRows(int64(i)) {
			return nil, fmt.Errorf("trace: manifest chunk %d claims %d rows, geometry says %d", i, c.Rows, t.chunkRows(int64(i)))
		}
		t.crcs[i], t.nexts[i] = c.CRC, isa.PC(c.NextPC)
	}
	return t, nil
}

// executed reports whether pc has a static-table entry the trace filled —
// the damage check every stored pc passes before it indexes the table.
func (t *Trace) executed(pc isa.PC) bool {
	return uint64(pc) < uint64(len(t.static)) && t.static[pc].PC == pc
}

// fits checks the static table against prog, the program a reader is
// about to bind: same length, and at every executed pc the opcode and
// operand registers (and, for a handle, the mini-graph id) the trace
// recorded. A trace that does not fit reads as ErrChunkUnavailable — it
// is some other binary's trace, so for this one it is a miss.
func (t *Trace) fits(prog *isa.Program) error {
	if len(t.static) != prog.Len() {
		return fmt.Errorf("%w: static table has %d entries, the program %d instructions",
			ErrChunkUnavailable, len(t.static), prog.Len())
	}
	for pc := range t.static {
		tm := &t.static[pc]
		if tm.PC != isa.PC(pc) {
			continue
		}
		in := &prog.Insts[pc]
		srcs, n := in.SrcRegs()
		if tm.Op != in.Op || tm.NSrcs != n || tm.Srcs != srcs ||
			(in.Op.Info().Fmt == isa.FmtMG && tm.MGID != in.MGID) {
			return fmt.Errorf("%w: static entry %d (%v) is not the program's instruction (%v)",
				ErrChunkUnavailable, pc, tm.Op, in.Op)
		}
	}
	return nil
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

// appendRecord packs one record's dynamic row into the open chunk and, the
// first time its pc executes, files its static half in the static table.
func (t *Trace) appendRecord(rec *emu.Record) {
	if tm := &t.static[rec.PC]; tm.PC != rec.PC {
		// Through the wire form, so the template a capture replays from is
		// the one an adopter of its manifest rebuilds.
		*tm = staticOf(rec).template(rec.PC)
	}
	w := uint32(rec.PC)
	if rec.Taken {
		w |= takenBit
	}
	var row [recordBytes]byte
	binary.LittleEndian.PutUint32(row[0:], w)
	binary.LittleEndian.PutUint64(row[4:], uint64(rec.EA))
	binary.LittleEndian.PutUint64(row[12:], rec.DestVal)
	binary.LittleEndian.PutUint64(row[20:], rec.StoreVal)
	t.cur = append(t.cur, row[:]...)
	t.next = rec.NextPC
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
	t.nexts = append(t.nexts, t.next)
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
		static:       make([]emu.Record, prog.Len()),
	}
	for pc := range t.static {
		t.static[pc].PC = unexecuted
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
	win     *chunkWindow
	serve   int64 // records available to this reader (limit-clamped)
	cursor  int64
	err     error
	faultAt int64 // serve value before an I/O cutoff (for Err precedence)

	scratch emu.Record
}

// NewReader opens a cursor over t bound to prog (the program t was
// captured from, or a structurally identical copy; a program t's static
// table does not fit serves no records and reports ErrChunkUnavailable).
// limit bounds served records like Config.MaxRecords bounds the live
// stream (<= 0: no limit). The chunk window is unbounded: every chunk
// faulted in stays resident for the reader's lifetime.
func NewReader(t *Trace, prog *isa.Program, limit int64) *Reader {
	return NewReaderWindowed(t, prog, limit, 0)
}

// NewReaderWindowed is NewReader with a bounded resident-chunk window:
// at most windowChunks spilled chunks are held at once (<= 0: unbounded),
// so replay memory is windowChunks × chunk bytes no matter how large the
// trace is. Chunks the Trace itself retains are served directly and do
// not count against the window.
func NewReaderWindowed(t *Trace, prog *isa.Program, limit int64, windowChunks int) *Reader {
	r := &Reader{win: newChunkWindow(t, prog, windowChunks)}
	r.serve, r.err = r.win.open(limit)
	return r
}

// WindowStats reports the reader's chunk-window activity (faults,
// evictions, peak resident bytes).
func (r *Reader) WindowStats() WindowStats { return r.win.stats }

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
	if err := r.win.fill(dst, r.cursor); err != nil {
		// The stream cuts off at the cursor and the failure surfaces
		// through Err.
		r.err = err
		r.faultAt = r.serve
		r.serve = r.cursor
		return false
	}
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
