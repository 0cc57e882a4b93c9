package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

// A segment is one file holding the values of one group — written together,
// read in order, evicted together — as ordinary entry envelopes laid end to
// end, followed by an index of where each begins:
//
//	record 0 | … | record n-1 | n × (offset u64 | length u64 | crc32(key) u32) | n u64 | crc32 u32 | "MGSI"
//
// little-endian, the last CRC over the table and n. The records must tile
// the file from byte 0 to the table exactly, so like an entry a segment has
// no byte that is unaccounted for: a truncated, extended or spliced file
// does not index. Each record still carries its own key and SHA-256, so a
// read verifies what it returns without trusting the index for anything
// but where to look. An entry's key is vouched for by its file's name; a
// record's by the row's key checksum, and the last record's by the name
// too: by convention it is stored under the segment's own key, which is
// what ties the file's content to where it is.
const (
	segMagic  = "MGSI"
	segRow    = 8 + 8 + 4
	segFooter = int64(8 + 4 + len(segMagic))
)

// span is one row of the index: where a record is and what its key sums to.
type span struct {
	off, n int64
	keySum uint32
}

// appendIndex appends the index of recs to the records they describe.
func appendIndex(dst []byte, recs []span) []byte {
	start := len(dst)
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.off))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.n))
		dst = binary.LittleEndian.AppendUint32(dst, r.keySum)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(recs)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return append(dst, segMagic...)
}

// loadIndex reads and verifies the index of a segment of size bytes. It
// allocates no more than the file holds, whatever the count claims.
func loadIndex(f io.ReaderAt, size int64) ([]span, bool) {
	var foot [segFooter]byte
	if size < segFooter {
		return nil, false
	}
	if _, err := f.ReadAt(foot[:], size-segFooter); err != nil || string(foot[12:]) != segMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(foot[:])
	if n == 0 || n > uint64(size)/(segRow+entryHeader) {
		return nil, false
	}
	table := make([]byte, n*segRow, n*segRow+8)
	start := size - segFooter - int64(len(table))
	if _, err := f.ReadAt(table, start); err != nil ||
		crc32.ChecksumIEEE(append(table, foot[:8]...)) != binary.LittleEndian.Uint32(foot[8:]) {
		return nil, false
	}
	recs := make([]span, n)
	end := int64(0)
	for i := range recs {
		row := table[i*segRow:]
		r := span{int64(binary.LittleEndian.Uint64(row)), int64(binary.LittleEndian.Uint64(row[8:])), binary.LittleEndian.Uint32(row[16:])}
		if r.off != end || r.n < entryHeader || r.n > start-end {
			return nil, false
		}
		recs[i], end = r, end+r.n
	}
	if end != start {
		return nil, false
	}
	return recs, true
}

// readRecord reads the record at r and verifies its envelope. A file that
// ends early is damage (ok false, nil error); any other read error is
// returned, the file's state unknown.
func readRecord(f io.ReaderAt, r span) (key, value []byte, ok bool, err error) {
	data := make([]byte, r.n)
	if _, err := f.ReadAt(data, r.off); err != nil && err != io.EOF {
		return nil, nil, false, err
	}
	key, value, ok = parseEntry(data)
	return key, value, ok && crc32.ChecksumIEEE(key) == r.keySum, nil
}

// GetRecord returns the value of one record of the segment published under
// seg, provided that record holds key: record i of its body, or with i < 0
// the last record, the one that names the segment (a body index never
// reaches it). The index of a segment is read once and kept; a read it
// misdirects (another process replaced the file) reloads it once before
// giving up. A segment with a damaged index or record — one whose envelope
// fails, or holds another key — is deleted whole and every later read of
// it misses: its records are only useful together. An i past the body is a
// miss that deletes nothing.
func (s *Store) GetRecord(seg []byte, i int, key []byte) ([]byte, bool) {
	return s.counted(s.getRecord(hashKey(seg)+SegExt, i, key))
}

func (s *Store) getRecord(name string, i int, key []byte) ([]byte, bool) {
	if s.faults.read() {
		return nil, false // transient: the segment stays on disk and indexed
	}
	f, err := os.Open(s.pathFor(name))
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(name, false) // evicted by another process: forget it
		}
		return nil, false
	}
	defer f.Close()

	s.mu.Lock()
	var recs []span
	if e, ok := s.index[name]; ok && e.recs != nil {
		recs = e.recs
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	for cached := recs != nil; ; cached, recs = false, nil {
		if recs == nil {
			info, err := f.Stat()
			if err != nil {
				return nil, false
			}
			if recs, _ = loadIndex(f, info.Size()); recs == nil {
				break
			}
			s.admit(name, info.Size(), recs) // the one recency touch of this load
		}
		last, at := len(recs)-1, i
		switch {
		case i < 0:
			at = last // the record that names the segment
		case i >= last && cached:
			continue // past the body, of a file that may have been replaced
		case i >= last:
			return nil, false
		}
		k, val, ok, err := readRecord(f, recs[at])
		if err != nil {
			return nil, false
		}
		if ok && bytes.Equal(k, key) {
			return val, true
		}
		if !cached {
			break
		}
	}
	s.drop(name, true)
	return nil, false
}

// SegmentWriter stages one segment: Append adds records to a staging file,
// Publish writes the index and renames the file into place, which is the
// first moment any reader can see any of it. The first failure — a write
// error, a record the byte budget cannot hold — is sticky and removes the
// staging file: a segment is published whole or not at all. Not safe for
// concurrent use.
type SegmentWriter struct {
	staged
	recs []span
	buf  []byte // the record being appended; reused, so a trace's chunks cost one buffer
}

// BeginSegment starts the segment to be published under key. sizeHint is
// the caller's estimate of the bytes it will hold; one the budget could
// never admit is refused here, as a unit (one RejectedPuts), before a file
// exists. The result is never nil: a refused or failed writer reports its
// error from Err, Append and Publish.
func (s *Store) BeginSegment(key []byte, sizeHint int64) *SegmentWriter {
	name := hashKey(key) + SegExt
	if s.max >= 0 && sizeHint > s.max {
		return &SegmentWriter{staged: staged{s: s, name: name, err: s.refuse(sizeHint)}}
	}
	return &SegmentWriter{staged: s.stage(name)}
}

// Err reports the failure that ended the segment, if any.
func (w *SegmentWriter) Err() error { return w.err }

// Abort abandons the segment and removes its staging file. It does nothing
// to a segment already published or failed.
func (w *SegmentWriter) Abort() { w.fail(errors.New("store: segment aborted")) }

// Append adds value under key as the segment's next record.
func (w *SegmentWriter) Append(key, value []byte) error {
	if w.err != nil {
		return w.err // before the record is hashed for nothing
	}
	w.buf = appendEntry(w.buf[:0], key, value)
	r := span{w.off, int64(len(w.buf)), crc32.ChecksumIEEE(key)}
	if size := w.off + r.n + int64(len(w.recs)+1)*segRow + segFooter; w.s.max >= 0 && size > w.s.max {
		return w.fail(w.s.refuse(size))
	}
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.recs = append(w.recs, r)
	return nil
}

// Publish makes the segment visible, atomically replacing any previous one
// under its key, as the store's most recently used file; less recently used
// entries and segments are evicted if the byte budget is now exceeded.
func (w *SegmentWriter) Publish() error {
	if len(w.recs) == 0 {
		return w.fail(errors.New("store: empty segment"))
	}
	w.write(appendIndex(nil, w.recs)) // a failure is sticky: publish reports it
	return w.publish(w.recs)
}
