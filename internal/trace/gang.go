package trace

import "minigraph/internal/isa"

// DefaultGangWindow is the gang's lag window in records: how far behind
// the gang's leading cursor a trailing one may read and still find its
// chunk resident. It must comfortably exceed the spread between the
// cursors of whoever steps them in lockstep quanta, plus the machine's
// maximum squash depth, so that in steady state no cursor — including one
// rewinding after a squash — faults a chunk another cursor already faulted
// in.
const DefaultGangWindow = 4096

// GangReader is a fan-out reader: one traversal of a Trace serves a whole
// gang of cursors. The engine forms no gangs — every arm replays through
// its own Reader — and the bench module's two-cursor drain is this type's
// one caller outside tests; ROADMAP item 4(a) deletes it with that
// measurement. Its cursors share one chunk
// window, so each spilled chunk is faulted in once — when the leading
// cursor first reaches it — and every other cursor within the lag window
// finds it resident. Each cursor is a Reader that decodes its own rows, so
// arms stalled on long-latency events simply lag inside the window while
// fast arms proceed; a cursor that falls (or rewinds) further behind is
// still correct — it faults the chunk back in — it just stops sharing
// until it catches back up.
//
// A GangReader and all of its cursors belong to ONE goroutine, so the
// shared window needs no locking. For concurrent simulations from many
// goroutines, open independent Readers (or one GangReader per gang) over
// the same immutable Trace.
type GangReader struct {
	win *chunkWindow
}

// GangCursor is one arm's view of a GangReader: a Reader over the gang's
// shared chunk window.
type GangCursor = Reader

// NewGangReaderWindowed builds a gang reader over t bound to prog (the
// program t was captured from, or a structurally identical copy) whose
// cursors share one resident-chunk window. window is the lag window in
// records (<= 0 selects DefaultGangWindow). A bounded window
// (windowChunks > 0) holds max(windowChunks, ⌈window/chunk rows⌉ + 1)
// spilled chunks — every chunk the lag window can span — so a cursor
// lagging within it never re-faults a chunk; windowChunks <= 0 leaves it
// unbounded. Replay memory is that many chunks plus the one each cursor
// pins, no matter how large the trace is.
func NewGangReaderWindowed(t *Trace, prog *isa.Program, window, windowChunks int) *GangReader {
	if window <= 0 {
		window = DefaultGangWindow
	}
	if windowChunks > 0 {
		rows := t.ChunkRecords()
		windowChunks = max(windowChunks, int((int64(window)+rows-1)/rows)+1)
	}
	return &GangReader{win: newChunkWindow(t, prog, windowChunks)}
}

// WindowStats reports the gang's shared chunk-window activity (faults,
// evictions, peak resident bytes).
func (g *GangReader) WindowStats() WindowStats { return g.win.stats }

// SharedRecords returns the records the gang's cursors read from a chunk
// the shared window already held when the cursor entered it: a cursor
// replaying alone would have faulted each of those chunks in itself.
func (g *GangReader) SharedRecords() int64 { return g.win.shared }

// Cursor opens a per-arm cursor with the exact semantics of a solo
// Reader: limit bounds served records like Config.MaxRecords bounds the
// live stream (<= 0: no limit), and the architectural fault that
// truncated the capture surfaces only if the limit would have forced
// generation past it.
func (g *GangReader) Cursor(limit int64) *GangCursor { return newReader(g.win, limit) }
