// Package trace captures a program's dynamic instruction stream once and
// replays it any number of times. The timing simulator in internal/uarch is
// execution-driven but timing-independent of *how* records are delivered:
// internal/emu can generate them live, step by step, or a Reader can replay
// them from an immutable Trace captured earlier. A Trace is a compact
// encoding of the full record stream — one functional emulation serves
// every machine configuration swept over the same binary, which is where
// multi-arm experiment sweeps spend most of their time.
//
// A trace stores only what neither the program text nor the row before
// it does. Each record is a dynamic row: where control went, and those of
// the three values it produced (effective address, destination value,
// store value) that its pc can produce at all. Everything that is a
// function of the pc — opcode, operand registers, access size, the
// load/store/control flags, the mini-graph id, and so which fields a row
// carries — lives once per static instruction in the trace's static
// table, filled the first time a pc executes and carried in the Manifest,
// so a trace adopted from a store or a peer replays without the mini-graph
// table that shaped it. The pc itself is not stored per row: it is where
// the row before went.
//
// The rows are held as chunks of a fixed row count (DefaultChunkRecords
// rows per chunk; see chunk.go), which are the unit of capture spill, CRC
// framing, store persistence, peer transfer and reader residency — a
// trace much larger than RAM captures and replays within a bounded chunk
// window.
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

// A chunk's payload opens with the pc of its first row; after that no row
// stores a pc. A row at pc p holds, in order, only the fields p's static
// entry says a record there has:
//
//	ctrl (control transfer) | ea (load or store) | destVal (writable Dest) | storeVal (store)
//
// and every field is a prefix varint (see appendVarint). ctrl is 0 for a
// not-taken transfer, which continues at p+1; otherwise the row is taken
// and continues at p+1+unzigzag(ctrl−1) — Taken is stored, not derived,
// because a conditional branch to its own fall-through is taken or not
// with the same NextPC. A row without ctrl continues at p+1 and is never
// taken (capture panics on a record that breaks this). A value a pc cannot
// produce is zero in every live record (TestStaticFieldsAreStatic checks
// it), so leaving it out loses nothing. Rows are packed back to back, so
// a row's offset is the sum of the widths before it and its pc the
// continuation of the row before it; each resident chunk keeps the offset
// and pc of every indexStride-th row (see chunk.go), which keeps Rewind to
// one lookup and a few row steps.
//
// Nothing else is stored per record. The static fields come from the
// static table entry of the row's pc (see StaticInst). NextPC is the row's
// continuation; the last row's is the chunk's NextPC in the manifest, and
// a chunk becomes resident only if the two agree — the manifest's entry is
// also the one place a NextPC outside the program is checked against
// (only a trace's last record can have one: the step after it faults at
// fetch). Seq is the row index, FallPC is pc+1 and Inst is the bound
// program's instruction at pc.
const (
	// maxVarintBytes is the widest prefix varint: 0xff and 8 raw bytes.
	maxVarintBytes = 9

	// loadSlack is the spare capacity every resident payload (and the
	// capture scratch buffer) keeps past its last byte, so a varint is
	// read, and written, as one 8-byte little-endian access wherever it
	// starts.
	loadSlack = 7
)

// MaxRecordBytes is the widest row: a control transfer that produces all
// three values, each field a full-width varint. It bounds a trace's bytes
// from its record count before it is captured (store budget hints); a
// captured trace knows its real size (SizeBytes).
const MaxRecordBytes = 4 * maxVarintBytes

// Row field bits: which fields the rows of a pc carry, in row order.
const (
	fieldCtrl uint8 = 1 << iota
	fieldEA
	fieldDest
	fieldStore
)

// appendVarint appends v as a prefix varint: the count of trailing one
// bits in the first byte is the number of bytes that follow, and the value
// takes the 7 bits a byte above that count — up to 8 bytes (56 bits); a
// first byte of 0xff is followed by the 8 raw bytes of a wider value. The
// encoding is the shortest that holds v: a decoder rejects any other.
// It writes 8 bytes and keeps v's, so a buffer with loadSlack spare bytes
// past the varint never grows for it.
func appendVarint(b []byte, v uint64) []byte {
	n := (bits.Len64(v) - 1) / 7 // bytes after the first
	if n >= 8 {
		return binary.LittleEndian.AppendUint64(append(b, 0xff), v)
	}
	b = binary.LittleEndian.AppendUint64(b, v<<(n+1)|(1<<n-1))
	return b[:len(b)-7+n]
}

// varint decodes the prefix varint at b[off:] and returns it with the
// offset just past it. b must hold 8 readable bytes from off (a resident
// payload extended to its loadSlack); whether the varint fits the payload
// and is minimal is for the caller to check (see varintFits).
func varint(b []byte, off int) (uint64, int) {
	x := binary.LittleEndian.Uint64(b[off:])
	n := uint(bits.TrailingZeros8(^uint8(x)))
	if n == 8 {
		return binary.LittleEndian.Uint64(b[off+1:]), off + 9
	}
	return x << (56 - 8*n) >> (57 - 7*n), off + int(n) + 1
}

// varintFits reports whether a varint decoding to v over width bytes is
// the minimal encoding of v.
func varintFits(v uint64, width int) bool {
	return width == 1 || v >= 1<<(7*(width-1))
}

// zigzag maps a signed displacement onto the unsigned values small
// magnitudes first (0, −1, 1, −2, …), so a short branch is a short varint.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// continuation is where a control transfer at pc with control word w
// continues: pc+1 when w is 0 (not taken), else the taken displacement.
func continuation(pc isa.PC, w uint64) isa.PC {
	if w == 0 {
		return pc + 1
	}
	return pc + 1 + isa.PC(unzigzag(w-1))
}

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

// fields is the set of fields a row at this entry's pc carries: a
// control word for a control transfer, an address for a memory access,
// the destination value for a writable Dest, the stored value for a
// store. Meaningless for an unexecuted entry.
func (s StaticInst) fields() uint8 {
	var f uint8
	if s.Flags&staticCtrl != 0 {
		f |= fieldCtrl
	}
	if s.Flags&(staticLoad|staticStore) != 0 {
		f |= fieldEA
	}
	if d := isa.Reg(s.Dest); !d.IsZero() && int(d) < isa.TotalRegs {
		f |= fieldDest
	}
	if s.Flags&staticStore != 0 {
		f |= fieldStore
	}
	return f
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

// Trace is an immutable dynamic instruction stream in packed-row form,
// held as chunks of a fixed row count. A Trace is safe for concurrent
// Readers once built; a chunk is either resident (its payload retained in
// memory) or spilled (payload dropped after sealing through a ChunkSink),
// in which case Readers fault it back in through the bound ChunkSource.
type Trace struct {
	chunkRecords int64 // rows per chunk (power of two)
	chunkShift   uint  // log2(chunkRecords)
	n            int64 // total rows

	// static is the static table as ready-made record templates, indexed
	// by pc: decoding a row is one copy of its pc's template plus the
	// dynamic fields. A pc the trace never executed holds the unexecuted
	// marker. The table is small (one entry per static instruction) and is
	// not counted by SizeBytes or ResidentBytes. fields holds, by pc, the
	// values a row at that pc carries, so a decoder never inspects a
	// template to find a row's width.
	static []emu.Record
	fields []uint8

	// chunks holds each sealed chunk's packed rows and offset index; an
	// entry without rows is a spilled chunk whose payload lives behind
	// source. info is the manifest's chunk table: each chunk's rows, bytes
	// and IEEE CRC-32, computed at seal time and re-checked on every
	// fault-in, and the NextPC of its last row.
	chunks []chunk
	info   []ChunkInfo
	source ChunkSource

	// cur is the open (unsealed) chunk during capture — a scratch buffer
	// every chunk is written into and sealed from — nil once built; next is
	// the NextPC of the last record appended to it.
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

// SizeBytes returns the logical size of the trace: the packed row bytes
// it represents plus the fault message — independent of how many chunks
// happen to be resident right now (see ResidentBytes for that).
func (t *Trace) SizeBytes() int64 {
	b := int64(len(t.errMsg))
	for _, c := range t.info {
		b += c.Bytes
	}
	return b
}

// ResidentBytes returns the chunk payload and offset-index bytes currently
// held in memory by the Trace itself (spilled chunks and reader windows
// excluded). It counts capacity, not length: a cache that budgets by this
// number must be charged what the heap holds, and a buffer's unused tail
// is held too.
func (t *Trace) ResidentBytes() int64 {
	var b int64
	for _, c := range t.chunks {
		b += c.heldBytes()
	}
	return b + int64(cap(t.cur))
}

// Spilled reports whether any chunk's payload is non-resident (replay
// then requires a bound ChunkSource).
func (t *Trace) Spilled() bool {
	for _, c := range t.chunks {
		if c.rows == nil {
			return true
		}
	}
	return false
}

// Materialize faults every spilled chunk in through the bound source and
// retains it, leaving the trace fully resident (and fully verified).
// Replay then needs no source at all — how a store load or a peer
// transfer is adopted when no residency bound is in force.
func (t *Trace) Materialize() error {
	for ci := range t.chunks {
		if t.chunks[ci].rows == nil {
			c, err := t.fault(int64(ci))
			if err != nil {
				return err
			}
			t.chunks[ci] = c
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
// static table, and per-chunk row and byte counts, checksums and next pcs.
func (t *Trace) Manifest() Manifest {
	m := Manifest{
		ChunkRecords: t.ChunkRecords(),
		Rows:         t.n,
		Halted:       t.halted,
		ErrMsg:       t.errMsg,
		Static:       make([]StaticInst, len(t.static)),
		Chunks:       append([]ChunkInfo(nil), t.info...),
	}
	for pc := range t.static {
		if tm := &t.static[pc]; tm.PC == isa.PC(pc) {
			m.Static[pc] = staticOf(tm)
		}
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
	if err := m.check(); err != nil {
		return nil, err
	}
	t := &Trace{
		chunkRecords: cr,
		chunkShift:   uint(bits.TrailingZeros64(uint64(cr))),
		n:            m.Rows,
		static:       make([]emu.Record, len(m.Static)),
		fields:       make([]uint8, len(m.Static)),
		chunks:       make([]chunk, len(m.Chunks)),
		info:         append([]ChunkInfo(nil), m.Chunks...),
		source:       src,
		errMsg:       m.ErrMsg,
		halted:       m.Halted,
	}
	for pc, s := range m.Static {
		t.static[pc], t.fields[pc] = s.template(isa.PC(pc)), s.fields()
	}
	for i, c := range m.Chunks {
		if c.Rows != t.chunkRows(int64(i)) {
			return nil, fmt.Errorf("trace: manifest chunk %d claims %d rows, geometry says %d", i, c.Rows, t.chunkRows(int64(i)))
		}
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
// or one fetched (and verified against the manifest's byte count and CRC)
// through the bound source. Unlike a reader window, nothing is cached —
// this is the persistence/transfer path, not the replay path.
func (t *Trace) ChunkPayload(ci int64) ([]byte, error) {
	if ci < 0 || ci >= t.NumChunks() {
		return nil, fmt.Errorf("trace: chunk %d out of range (%d chunks)", ci, t.NumChunks())
	}
	if data := t.chunks[ci].rows; data != nil {
		// Capped, so a caller's append cannot write the spare bytes that
		// readers load.
		return data[:len(data):len(data)], nil
	}
	if t.source == nil {
		return nil, fmt.Errorf("%w: chunk %d is not resident and the trace has no source", ErrChunkUnavailable, ci)
	}
	data, err := t.source.FetchChunk(ci)
	if err == nil {
		err = t.info[ci].Verify(data)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %d: %v", ErrChunkUnavailable, ci, err)
	}
	return data, nil
}

// fault fetches spilled chunk ci through the source and makes it
// resident: verified against the manifest, its rows checked and indexed.
func (t *Trace) fault(ci int64) (chunk, error) {
	data, err := t.ChunkPayload(ci)
	if err != nil {
		return chunk{}, err
	}
	return t.resident(ci, data)
}

// appendRecord packs one record's dynamic row into the open chunk — after
// the chunk's first pc, if the row opens it — and, the first time its pc
// executes, files its static half in the static table.
func (t *Trace) appendRecord(rec *emu.Record) {
	if tm := &t.static[rec.PC]; tm.PC != rec.PC {
		// Through the wire form, so the template a capture replays from is
		// the one an adopter of its manifest rebuilds.
		s := staticOf(rec)
		*tm, t.fields[rec.PC] = s.template(rec.PC), s.fields()
	}
	if t.n&(t.chunkRecords-1) == 0 {
		t.cur = appendVarint(t.cur, uint64(rec.PC))
	}
	f := t.fields[rec.PC]
	switch {
	case f&fieldCtrl != 0 && rec.Taken:
		t.cur = appendVarint(t.cur, 1+zigzag(int64(rec.NextPC-rec.PC-1)))
	case rec.Taken || rec.NextPC != rec.PC+1:
		panic(fmt.Sprintf("trace: record %d at pc %d (taken=%v) continues at %d, which its row cannot say",
			t.n, rec.PC, rec.Taken, rec.NextPC))
	case f&fieldCtrl != 0:
		t.cur = append(t.cur, 0)
	}
	if f&fieldEA != 0 {
		t.cur = appendVarint(t.cur, uint64(rec.EA))
	}
	if f&fieldDest != 0 {
		t.cur = appendVarint(t.cur, rec.DestVal)
	}
	if f&fieldStore != 0 {
		t.cur = appendVarint(t.cur, rec.StoreVal)
	}
	t.next = rec.NextPC
	t.n++
}

// seal closes the open chunk: records it in the manifest's chunk table
// and either spills it through sink or retains a copy of its own size
// plus loadSlack, indexed. A sink error keeps the chunk resident —
// spilling is an optimization, so its failure can cost memory but never
// the capture.
// Either way the scratch buffer is emptied for the next chunk.
func (t *Trace) seal(sink ChunkSink) {
	if len(t.cur) == 0 {
		return
	}
	idx := int64(len(t.chunks))
	info := ChunkInfo{Rows: t.chunkRows(idx), Bytes: int64(len(t.cur)), CRC: crc32.ChecksumIEEE(t.cur), NextPC: int64(t.next)}
	t.info = append(t.info, info)
	var c chunk
	if sink == nil || sink.SealChunk(idx, info.Rows, t.cur, info.CRC) != nil {
		var err error
		if c, err = t.resident(idx, append(make([]byte, 0, len(t.cur)+loadSlack), t.cur...)); err != nil {
			panic(fmt.Sprintf("trace: capture sealed a chunk it cannot read back: %v", err))
		}
	}
	t.chunks = append(t.chunks, c)
	t.cur = t.cur[:0]
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
	// count): an accurate hint sizes the capture's one scratch buffer for
	// no more rows than the trace will have. The hint only affects
	// allocation, never content.
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
		fields:       make([]uint8, prog.Len()),
	}
	for pc := range t.static {
		t.static[pc].PC = unexecuted
	}

	// One scratch buffer holds the open chunk, sized for the widest chunk
	// the capture can produce — the hint and the limit can only shrink
	// that — plus the slack a varint's 8-byte write needs, so every chunk
	// is written without growing it; a sealed chunk that stays resident is
	// copied out at its own size.
	rows := cr
	if opts.Hint > 0 && opts.Hint < rows {
		rows = opts.Hint
	}
	if limit < rows {
		rows = limit
	}
	t.cur = make([]byte, 0, maxVarintBytes+rows*MaxRecordBytes+loadSlack)

	m := emu.NewMachine(prog, mgt)
	var rec emu.Record
	for !m.Halted && t.n < limit {
		if t.n%captureCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := m.Step(&rec); err != nil {
			t.errMsg = err.Error()
			break
		}
		t.appendRecord(&rec)
		if t.n&(cr-1) == 0 {
			t.seal(opts.Sink)
		}
	}
	t.halted = m.Halted
	t.seal(opts.Sink)
	t.cur = nil
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
// Over a spilled trace the Reader faults chunks in through the trace's
// ChunkSource into a bounded window of resident chunks — its own
// (NewReaderWindowed) or its gang's (GangReader.Cursor); a source failure
// surfaces through Err as ErrChunkUnavailable after the stream cuts off,
// mirroring how the live stream surfaces an architectural fault.
type Reader struct {
	dec     decoder
	serve   int64 // records available to this reader (limit-clamped)
	cursor  int64
	err     error
	faultAt int64 // serve value before an I/O cutoff (for Err precedence)
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
	return newReader(newChunkWindow(t, prog, windowChunks), limit)
}

func newReader(w *chunkWindow, limit int64) *Reader {
	r := &Reader{dec: decoder{w: w}}
	r.serve, r.err = w.open(limit)
	return r
}

// WindowStats reports the activity of the reader's chunk window (faults,
// evictions, peak resident bytes) — its gang's, for a gang cursor.
func (r *Reader) WindowStats() WindowStats { return r.dec.w.stats }

// NextInto writes the record at the cursor into dst and advances — the
// pipeline's zero-copy delivery path (the record materialises directly in
// the consumer's storage, no scratch staging). false means the stream is
// exhausted (halt, limit, or fault — check Err).
func (r *Reader) NextInto(dst *emu.Record) bool {
	if r.cursor >= r.serve {
		return false
	}
	if err := r.dec.fill(dst, r.cursor); err != nil {
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

// Cursor returns the sequence number of the next record NextInto will
// serve.
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
