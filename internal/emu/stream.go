package emu

import "fmt"

// Stream turns a Machine into a rewindable dynamic-instruction source for
// the timing simulator. Records are generated lazily in program order and
// retained in a ring window so squashes (branch mispredictions are handled
// by stalling, but memory-ordering violations and mini-graph replays
// re-deliver instructions) can rewind a bounded distance — at most the
// reorder-buffer depth plus the front-end contents.
type Stream struct {
	m      *Machine
	window []Record
	gen    int64 // records generated so far
	cursor int64 // next sequence number to serve
	err    error
	done   bool
	limit  int64
}

// NewStream wraps m. window bounds how far back Rewind can reach; limit
// bounds total generated records (0 means no limit).
func NewStream(m *Machine, window int, limit int64) *Stream {
	if window < 16 {
		window = 16
	}
	if limit <= 0 {
		limit = 1 << 62
	}
	return &Stream{m: m, window: make([]Record, window), limit: limit}
}

// Next returns the record at the cursor, advancing it. ok=false means the
// stream is exhausted (program halted, limit reached, or an architectural
// fault occurred — check Err).
func (s *Stream) Next() (rec *Record, ok bool) {
	if s.cursor == s.gen {
		if s.done || s.err != nil {
			return nil, false
		}
		if s.m.Halted || s.gen >= s.limit {
			s.done = true
			return nil, false
		}
		slot := &s.window[s.gen%int64(len(s.window))]
		if err := s.m.Step(slot); err != nil {
			s.err = err
			return nil, false
		}
		s.gen++
	}
	r := &s.window[s.cursor%int64(len(s.window))]
	s.cursor++
	return r, true
}

// NextInto writes the record at the cursor into dst and advances. false
// means the stream is exhausted (program halted, limit reached, or an
// architectural fault occurred — check Err).
func (s *Stream) NextInto(dst *Record) bool {
	r, ok := s.Next()
	if !ok {
		return false
	}
	*dst = *r
	return true
}

// Cursor returns the sequence number of the next record Next will serve.
func (s *Stream) Cursor() int64 { return s.cursor }

// Err returns the architectural fault that ended the stream, if any.
func (s *Stream) Err() error { return s.err }

// Exhausted reports whether the underlying machine has halted and all
// records have been served.
func (s *Stream) Exhausted() bool {
	return (s.done || s.m.Halted || s.err != nil) && s.cursor == s.gen
}

// Rewind moves the cursor back to sequence seq (the next Next call serves
// seq again). It panics if seq has fallen out of the retention window,
// which indicates the window was sized smaller than the machine's maximum
// squash depth — a simulator configuration bug.
func (s *Stream) Rewind(seq int64) {
	if seq > s.cursor {
		panic(fmt.Sprintf("emu: rewind forward (seq=%d cursor=%d)", seq, s.cursor))
	}
	if s.gen-seq > int64(len(s.window)) {
		panic(fmt.Sprintf("emu: rewind beyond window (seq=%d gen=%d window=%d)", seq, s.gen, len(s.window)))
	}
	s.cursor = seq
}
