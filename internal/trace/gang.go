package trace

import (
	"errors"
	"fmt"

	"minigraph/internal/emu"
	"minigraph/internal/isa"
)

// DefaultGangWindow is the shared-decode ring depth in records. It must
// comfortably exceed the gang scheduler's pacing spread (lead bound plus
// one quantum's worth of fetch overshoot) plus the machine's maximum
// squash depth, so that in steady state every cursor — including one
// rewinding after a squash — is served from the decoded ring rather than
// falling back to a private decode.
const DefaultGangWindow = 4096

// GangReader is the shared-decode fan-out layer behind gang replay: one
// traversal of a Trace serves a whole gang of simulations. The reader
// decodes each packed record exactly once — when the leading cursor first
// reaches it — into a ring of the last `window` decoded records, and every
// other cursor within the window is served by a single struct copy instead
// of a field-by-field decode. Arms stalled on long-latency events simply
// lag inside the window while fast arms proceed; a cursor that falls (or
// rewinds) more than `window` records behind the decode frontier is still
// correct — it decodes privately from the packed bytes — it just stops
// sharing until it catches back up.
//
// A GangReader and all of its cursors belong to ONE goroutine: the gang
// scheduler interleaves its pipelines on a single goroutine precisely so
// the shared ring needs no locking. For concurrent simulations from many
// goroutines, open independent Readers (or one GangReader per gang) over
// the same immutable Trace.
type GangReader struct {
	win    *chunkWindow
	window int64
	mask   int64
	ring   []emu.Record

	// frontier is the number of records decoded into the ring so far; the
	// ring holds records [frontier-window, frontier).
	frontier int64

	sharedServes int64 // records served by copy from the decoded ring
	soloFills    int64 // records decoded privately (outside the window)
}

// NewGangReader builds a shared-decode reader over t bound to prog (the
// program t was captured from, or a structurally identical copy). window
// is the shared ring depth in records, rounded up to a power of two
// (<= 0 selects DefaultGangWindow). The chunk window is unbounded: every
// chunk faulted in stays resident for the reader's lifetime.
func NewGangReader(t *Trace, prog *isa.Program, window int) *GangReader {
	return NewGangReaderWindowed(t, prog, window, 0)
}

// NewGangReaderWindowed is NewGangReader with a bounded resident-chunk
// window shared by the whole gang: at most windowChunks spilled chunks
// are held at once (<= 0: unbounded). The gang scheduler's pacing keeps
// every cursor within a few thousand records of the frontier, so one
// small chunk window serves the entire gang — replay memory is the ring
// plus windowChunks × chunk bytes, no matter how large the trace is.
func NewGangReaderWindowed(t *Trace, prog *isa.Program, window, windowChunks int) *GangReader {
	if window <= 0 {
		window = DefaultGangWindow
	}
	size := int64(1)
	for size < int64(window) {
		size <<= 1
	}
	return &GangReader{
		win:    newChunkWindow(t, prog, windowChunks),
		window: size,
		mask:   size - 1,
		ring:   make([]emu.Record, size),
	}
}

// WindowStats reports the gang's shared chunk-window activity (faults,
// evictions, peak resident bytes).
func (g *GangReader) WindowStats() WindowStats { return g.win.stats }

// Window returns the shared ring depth in records.
func (g *GangReader) Window() int64 { return g.window }

// Decoded returns the number of records decoded into the shared ring —
// the decode work the whole gang paid once.
func (g *GangReader) Decoded() int64 { return g.frontier }

// SharedServes returns the number of records served from the decoded ring
// by struct copy: each one is a per-record decode some arm did not pay.
func (g *GangReader) SharedServes() int64 { return g.sharedServes }

// SoloFills returns the number of records decoded privately because a
// cursor was more than Window records behind the decode frontier (deep
// rewind, or an arm the scheduler let drift too far).
func (g *GangReader) SoloFills() int64 { return g.soloFills }

// Cursor opens a per-arm cursor implementing the pipeline's TraceSource
// contract with the exact semantics of a solo Reader: limit bounds served
// records like Config.MaxRecords bounds the live stream (<= 0: no limit),
// and the architectural fault that truncated the capture surfaces only if
// the limit would have forced generation past it.
func (g *GangReader) Cursor(limit int64) *GangCursor {
	c := &GangCursor{g: g}
	c.serve, c.err = g.win.open(limit)
	return c
}

// GangCursor is one arm's view of a GangReader: a cheap cursor whose
// records come from the shared decoded ring whenever it is within the lag
// window of the decode frontier. Rewind reaches any depth, exactly like a
// solo Reader — depth beyond the window merely costs private decodes.
type GangCursor struct {
	g       *GangReader
	serve   int64
	cursor  int64
	err     error
	faultAt int64 // serve value before an I/O cutoff (for Rewind retry)
}

// NextInto writes the record at the cursor into dst and advances — the
// pipeline's zero-copy delivery path. The three cases, in frequency
// order: within the window of the frontier (one struct copy from the
// ring), exactly at the frontier (decode once into the ring, advancing it
// for the whole gang), and behind the window (private decode fallback).
func (c *GangCursor) NextInto(dst *emu.Record) bool {
	if c.cursor >= c.serve {
		return false
	}
	g := c.g
	i := c.cursor
	switch {
	case i < g.frontier && i >= g.frontier-g.window:
		*dst = g.ring[i&g.mask]
		g.sharedServes++
	case i == g.frontier:
		slot := &g.ring[i&g.mask]
		if err := g.win.fill(slot, i); err != nil {
			return c.cutoff(err)
		}
		g.frontier++
		*dst = *slot
	default:
		if err := g.win.fill(dst, i); err != nil {
			return c.cutoff(err)
		}
		g.soloFills++
	}
	c.cursor++
	return true
}

// cutoff ends this cursor's stream at the cursor after a chunk-fetch
// failure; the failure surfaces through Err, mirroring how the live
// stream surfaces an architectural fault. Other cursors of the gang are
// unaffected unless they need the same missing chunk.
func (c *GangCursor) cutoff(err error) bool {
	c.err = err
	c.faultAt = c.serve
	c.serve = c.cursor
	return false
}

// Cursor returns the sequence number of the next record NextInto will
// serve.
func (c *GangCursor) Cursor() int64 { return c.cursor }

// Err returns the architectural fault that truncated the stream, if this
// cursor's limit would have run into it.
func (c *GangCursor) Err() error { return c.err }

// Exhausted reports whether every available record has been served.
func (c *GangCursor) Exhausted() bool { return c.cursor >= c.serve }

// Rewind moves the cursor back to sequence seq (squash recovery). Any
// depth is legal — the trace is fully retained — and rewinding forward is
// a simulator bug and panics, matching Reader and emu.Stream.
func (c *GangCursor) Rewind(seq int64) {
	if seq > c.cursor || seq < 0 {
		panic(fmt.Sprintf("trace: gang rewind out of range (seq=%d cursor=%d)", seq, c.cursor))
	}
	c.cursor = seq
	// A rewind past an I/O cutoff retries the fetch: restore the serve
	// bound so the cursor can make progress again if the source recovered.
	if c.faultAt > c.serve && errors.Is(c.err, ErrChunkUnavailable) {
		c.serve, c.faultAt, c.err = c.faultAt, 0, nil
	}
}
