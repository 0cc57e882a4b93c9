package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// segRec is one record of a test segment.
type segRec struct{ key, val []byte }

// testSegment is n chunk-like records and, last, the record under the
// segment's own key — the shape the simulation layer publishes a trace in.
func testSegment(seg string, n, valBytes int) []segRec {
	recs := make([]segRec, 0, n+1)
	for i := 0; i < n; i++ {
		recs = append(recs, segRec{[]byte(fmt.Sprintf("%s/chunk-%d", seg, i)),
			bytes.Repeat([]byte{byte('a' + i)}, valBytes)})
	}
	return append(recs, segRec{[]byte(seg), []byte("manifest of " + seg)})
}

func publish(t *testing.T, s *Store, seg string, recs []segRec) {
	t.Helper()
	w := s.BeginSegment([]byte(seg), 0)
	for _, r := range recs {
		if err := w.Append(r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Publish(); err != nil {
		t.Fatal(err)
	}
}

// readAll reads every record of the segment recs was published as — the
// body by position, the last as -1 — and reports how many hit. A hit that
// returns anything but the record's own bytes fails the test: whatever was
// done to the file, that is the one thing that may not happen.
func readAll(t *testing.T, s *Store, seg string, recs []segRec) (hits int) {
	t.Helper()
	for i, r := range recs {
		if i == len(recs)-1 {
			i = -1
		}
		got, ok := s.GetRecord([]byte(seg), i, r.key)
		if ok && !bytes.Equal(got, r.val) {
			t.Fatalf("record %d of %s: got %q, want %q", i, seg, got, r.val)
		}
		if ok {
			hits++
		}
	}
	return hits
}

// staging lists the staging files under the store's root.
func staging(t *testing.T, s *Store) (tmps []string) {
	t.Helper()
	filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.Contains(info.Name(), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	})
	return tmps
}

func segPath(s *Store, seg string) string { return s.pathFor(hashKey([]byte(seg)) + SegExt) }

func TestSegmentRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	recs := testSegment("trace-a", 5, 300)
	if _, ok := s.GetRecord([]byte("trace-a"), 0, recs[0].key); ok {
		t.Fatal("hit on an empty store")
	}
	publish(t, s, "trace-a", recs)
	if len(staging(t, s)) != 0 {
		t.Error("publish left a staging file behind")
	}
	if hits := readAll(t, s, "trace-a", recs); hits != len(recs) {
		t.Fatalf("%d of %d records hit", hits, len(recs))
	}
	// A position past the body is a miss that deletes nothing — a peer
	// asking for chunk 999, or for the chunk one past the last (where the
	// record under the segment's own key sits), must not cost the trace.
	for _, i := range []int{len(recs) - 1, len(recs), 999} {
		if _, ok := s.GetRecord([]byte("trace-a"), i, recs[len(recs)-1].key); ok {
			t.Errorf("record %d: hit", i)
		}
	}
	if hits := readAll(t, s, "trace-a", recs); hits != len(recs) {
		t.Fatalf("after plain misses %d of %d records hit", hits, len(recs))
	}
	info, err := os.Stat(segPath(s, "trace-a"))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != info.Size() || st.Puts != int64(len(recs)) {
		t.Errorf("a segment is one unit of %d bytes and %d puts: %+v", info.Size(), len(recs), st)
	}
	if st.Hits != int64(2*len(recs)) || st.Misses != 4 {
		t.Errorf("hit and miss counts: %+v", st)
	}

	// Republishing replaces the whole segment atomically.
	again := testSegment("trace-a", 2, 40)
	publish(t, s, "trace-a", again)
	if hits := readAll(t, s, "trace-a", again); hits != len(again) {
		t.Fatalf("replacement: %d of %d records hit", hits, len(again))
	}
	if s.Len() != 1 {
		t.Errorf("replacement left %d indexed files", s.Len())
	}
	// A record that is intact but under another key is damage like any
	// other: the segment goes.
	if _, ok := s.GetRecord([]byte("trace-a"), 1, again[0].key); ok {
		t.Error("record 1 served under record 0's key")
	}
	if hits := readAll(t, s, "trace-a", again); hits != 0 || s.Len() != 0 {
		t.Errorf("segment with a misfiled record: %d hits, %d indexed", hits, s.Len())
	}
	publish(t, s, "trace-a", again)
	s.DeleteSegment([]byte("trace-a"))
	if hits := readAll(t, s, "trace-a", again); hits != 0 || s.Len() != 0 {
		t.Errorf("deleted segment: %d hits, %d indexed", hits, s.Len())
	}
}

// TestSegmentEveryBitAndPrefix is TestEnvelopeEveryBitAndPrefix for the new
// unit, walked over a whole segment file: every single-bit flip and every
// strict prefix — of a record or of the index — reads as misses and a
// deleted segment, never as wrong bytes, and Scrub counts the same damage
// as corrupt. Both a reader that has to load the index from the damaged
// file and one still holding the index of the intact file are walked; the
// second cannot notice damage confined to the index until a scrub does.
func TestSegmentEveryBitAndPrefix(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	const seg = "trace"
	recs := testSegment(seg, 3, 9)
	publish(t, s, seg, recs)
	path := segPath(s, seg)
	good := mustRead(t, path)
	records := 0
	for _, r := range recs {
		records += len(encodeEntry(r.key, r.val))
	}
	if want := appendIndex(good[:records:records], s.index[filepath.Base(path)].recs); !bytes.Equal(good, want) {
		t.Fatal("Publish wrote something other than the records and appendIndex's bytes")
	}

	var damaged [][]byte
	for bit := 0; bit < len(good)*8; bit++ {
		d := bytes.Clone(good)
		d[bit/8] ^= 1 << (bit % 8)
		damaged = append(damaged, d)
	}
	for n := 0; n < len(good); n++ {
		damaged = append(damaged, good[:n])
	}
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(what string, i int) {
		t.Helper()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("damage %d: segment survived %s (stat: %v)", i, what, err)
		}
	}
	for i, d := range damaged {
		// Cold: the index comes from the damaged file.
		write(d)
		s.drop(filepath.Base(path), false)
		if hits := readAll(t, s, seg, recs); hits == len(recs) {
			t.Fatalf("damage %d (%d of %d bytes): every record still hit", i, len(d), len(good))
		}
		gone("a cold reader", i)

		// Warm: the index was loaded from the intact file.
		write(good)
		if hits := readAll(t, s, seg, recs); hits != len(recs) {
			t.Fatalf("damage %d: intact segment served %d of %d records", i, hits, len(recs))
		}
		write(d)
		hits := readAll(t, s, seg, recs)
		inIndex := len(d) >= records && bytes.Equal(d[:records], good[:records])
		if (hits == len(recs)) != inIndex {
			t.Fatalf("damage %d (in index: %v): a warm reader hit %d of %d records", i, inIndex, hits, len(recs))
		}
		if !inIndex {
			gone("a warm reader", i)
		}

		write(d)
		if rep := s.Scrub(); rep.Scanned != 1 || rep.Corrupt != 1 || rep.Errors != 0 || rep.BytesReclaimed != int64(len(d)) {
			t.Fatalf("damage %d: scrub %+v, want 1 scanned, 1 corrupt", i, rep)
		}
		gone("Scrub", i)
		if s.Len() != 0 {
			t.Fatalf("damage %d: scrub left the segment indexed", i)
		}
	}

	write(good)
	if rep := s.Scrub(); rep.Scanned != 1 || rep.Corrupt != 0 {
		t.Fatalf("scrub of the intact segment: %+v", rep)
	}
	if hits := readAll(t, s, seg, recs); hits != len(recs) {
		t.Fatalf("intact segment served %d of %d records", hits, len(recs))
	}
}

// TestScrubSegments: a scrub checks a segment as the unit it is — index,
// every record, and that the last record's key names the file — and leaves
// entries, healthy segments and staging files alone.
func TestScrubSegments(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, seg := range []string{"healthy", "flipped", "misnamed"} {
		publish(t, s, seg, testSegment(seg, 4, 200))
	}
	if err := s.Put([]byte("outcome"), []byte("unrelated")); err != nil {
		t.Fatal(err)
	}
	inFlight := s.BeginSegment([]byte("in flight"), 0)
	if err := inFlight.Append([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	defer inFlight.Abort()

	corruptFile(t, segPath(s, "flipped"))
	// A valid segment under another segment's name: every record verifies,
	// but the record that should name the file names a different one.
	if err := os.WriteFile(segPath(s, "misnamed"), mustRead(t, segPath(s, "healthy")), 0o666); err != nil {
		t.Fatal(err)
	}

	rep := s.Scrub()
	if rep.Scanned != 4 || rep.Corrupt != 2 || rep.Errors != 0 || rep.BytesReclaimed <= 0 {
		t.Errorf("scrub = %+v, want 4 scanned, 2 corrupt", rep)
	}
	for _, seg := range []string{"flipped", "misnamed"} {
		if _, err := os.Stat(segPath(s, seg)); !os.IsNotExist(err) {
			t.Errorf("segment %q survived the scrub", seg)
		}
	}
	if hits := readAll(t, s, "healthy", testSegment("healthy", 4, 200)); hits != 5 {
		t.Errorf("healthy segment served %d of 5 records after the scrub", hits)
	}
	if _, ok := s.Get([]byte("outcome")); !ok {
		t.Error("bystander entry was deleted")
	}
	if len(staging(t, s)) != 1 {
		t.Error("scrub touched a staging file")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d after scrub, want 2", s.Len())
	}
	if rep2 := s.Scrub(); rep2.Scanned != 2 || rep2.Corrupt != 0 {
		t.Errorf("second scrub = %+v, want 2 scanned and nothing deleted", rep2)
	}
}

// TestSegmentBudgetIsPerSegment: a segment the byte budget cannot hold is
// refused as a unit — one RejectedPuts, not one a record; nothing evicted
// to make room that could never be enough; no staging file left — whether
// the caller's size hint gives it away up front or the appends find out.
func TestSegmentBudgetIsPerSegment(t *testing.T) {
	recs := testSegment("big", 8, 512) // > 4 KiB, each record well under it
	for _, hint := range []int64{5000, 0} {
		s := open(t, t.TempDir(), 4<<10)
		for i := 0; i < 3; i++ {
			if err := s.Put([]byte(fmt.Sprintf("outcome-%d", i)), bytes.Repeat([]byte("o"), 256)); err != nil {
				t.Fatal(err)
			}
		}
		w := s.BeginSegment([]byte("big"), hint)
		var failedAt = -1
		for i, r := range recs {
			if err := w.Append(r.key, r.val); err != nil && failedAt < 0 {
				failedAt = i
			}
		}
		if hint > 0 && failedAt != 0 || hint == 0 && failedAt <= 0 {
			t.Errorf("hint %d: first failed append was %d", hint, failedAt)
		}
		if w.Err() == nil || w.Publish() == nil {
			t.Errorf("hint %d: an over-budget segment was published", hint)
		}
		st := s.Stats()
		if st.RejectedPuts != 1 || st.Evictions != 0 || st.Entries != 3 {
			t.Errorf("hint %d: want one refusal, no eviction, three entries: %+v", hint, st)
		}
		if tmps := staging(t, s); len(tmps) != 0 {
			t.Errorf("hint %d: staging files left behind: %v", hint, tmps)
		}
		if hits := readAll(t, s, "big", recs); hits != 0 {
			t.Errorf("hint %d: %d records of a refused segment hit", hint, hits)
		}
	}
}

// TestSegmentCrashBeforePublish: a writer that dies at any point before
// Publish's rename leaves no segment, only a staging file that an Open
// sweeps once it is stale — but not while appends keep it fresh, however
// long ago it was created.
func TestSegmentCrashBeforePublish(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	recs := testSegment("t", 4, 100)
	w := s.BeginSegment([]byte("t"), 0)
	for _, r := range recs[:3] {
		if err := w.Append(r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}
	tmps := staging(t, s)
	if len(tmps) != 1 {
		t.Fatalf("want one staging file, got %v", tmps)
	}
	if _, err := os.Stat(segPath(s, "t")); !os.IsNotExist(err) {
		t.Fatal("a segment is visible before Publish")
	}
	if hits := readAll(t, s, "t", recs); hits != 0 {
		t.Fatalf("%d records readable before Publish", hits)
	}

	// Started an hour ago, still being appended to: not swept.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(tmps[0], old, old); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[3].key, recs[3].val); err != nil {
		t.Fatal(err)
	}
	other := open(t, dir, -1)
	if _, err := os.Stat(tmps[0]); err != nil {
		t.Fatalf("another Open swept a staging file that is being appended to: %v", err)
	}
	if other.Len() != 0 {
		t.Errorf("a staging file was indexed: Len = %d", other.Len())
	}

	// The process dies here: the same file, no longer touched, is debris.
	if err := os.Chtimes(tmps[0], old, old); err != nil {
		t.Fatal(err)
	}
	third := open(t, dir, -1)
	if _, err := os.Stat(tmps[0]); !os.IsNotExist(err) {
		t.Error("stale staging file survived an Open")
	}
	if third.Len() != 0 || readAll(t, third, "t", recs) != 0 {
		t.Error("an unpublished segment is visible after the sweep")
	}
}

// TestSegmentCrossProcess: what a second handle on the directory — another
// process — sees of segments: Open indexes them at their size, the LRU
// evicts one as a unit, an over-budget directory is trimmed by whole
// segments, and a reader whose segment is evicted or replaced under it
// misses or re-reads, and never serves one file's bytes at another's
// offsets.
func TestSegmentCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, -1)
	ra, rb := testSegment("a", 4, 1000), testSegment("b", 4, 1000)
	publish(t, a, "a", ra)
	publish(t, a, "b", rb)
	ia, _ := os.Stat(segPath(a, "a"))
	ib, _ := os.Stat(segPath(a, "b"))

	b := open(t, dir, -1)
	if st := b.Stats(); st.Entries != 2 || st.Bytes != ia.Size()+ib.Size() {
		t.Fatalf("second handle indexed %+v, want 2 segments of %d bytes", st, ia.Size()+ib.Size())
	}
	if hits := readAll(t, b, "a", ra); hits != len(ra) {
		t.Fatalf("second handle read %d of %d records", hits, len(ra))
	}

	// Room for one segment and a little: "b" is the less recently used (the
	// read above touched "a"), and goes whole.
	c := open(t, dir, ia.Size()+ib.Size()/2)
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != ia.Size() {
		t.Fatalf("over-budget Open: %+v, want segment a alone", st)
	}
	for _, p := range []string{segPath(c, "b"), segPath(c, "b") + SeqExt} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived its segment's eviction", filepath.Base(p))
		}
	}
	// A put that needs the room evicts segment "a" as one unit too.
	if err := c.Put([]byte("k"), bytes.Repeat([]byte("v"), int(ib.Size())/2+200)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("put over a full store: %+v", st)
	}

	// Handle b still holds a's index. Evicted under it: every read misses.
	if hits := readAll(t, b, "a", ra); hits != 0 {
		t.Fatalf("read %d records of an evicted segment", hits)
	}
	if b.Len() != 1 { // "b" is still indexed there: never read, never missed
		t.Errorf("evicted segment still indexed: Len = %d", b.Len())
	}

	// Replaced under it by a segment of another shape: b's cached offsets
	// point into the middle of records. It reloads the index and serves the
	// new records — or misses — but never the old bytes.
	publish(t, a, "b", rb)
	if hits := readAll(t, b, "b", rb); hits != len(rb) {
		t.Fatalf("read %d of %d records", hits, len(rb))
	}
	reshaped := testSegment("b", 2, 333)
	publish(t, a, "b", reshaped)
	if hits := readAll(t, b, "b", reshaped); hits != len(reshaped) {
		t.Fatalf("after replacement read %d of %d records", hits, len(reshaped))
	}
	if _, ok := b.GetRecord([]byte("b"), 3, rb[3].key); ok {
		t.Error("a record of the replaced segment was served")
	}
	if _, err := os.Stat(segPath(b, "b")); err != nil {
		t.Error("a miss on a record the new segment does not reach deleted it")
	}
}

// footerFault fails the next read of a segment's footer, the read loadIndex
// starts with, once armed, as a transient I/O error would.
type footerFault struct {
	OS
	armed bool
}

func (f *footerFault) Open(name string) (File, error) {
	file, err := f.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return footerFile{file, f}, nil
}

type footerFile struct {
	File
	fault *footerFault
}

func (f footerFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == int(segFooter) && f.fault.armed {
		f.fault.armed = false
		return 0, errors.New("transient read error")
	}
	return f.File.ReadAt(p, off)
}

// TestSegmentIndexReadErrorKeepsSegment: a read error on a segment's index
// is not damage. The read misses, but the segment stays on disk and indexed
// and the next read hits; a scrub counts it in Errors and keeps it.
func TestSegmentIndexReadErrorKeepsSegment(t *testing.T) {
	dir := t.TempDir()
	recs := testSegment("t", 3, 100)
	publish(t, open(t, dir, -1), "t", recs)
	fault := &footerFault{}
	s, err := Open(dir, Options{MaxBytes: -1, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	kept := func(when string) {
		t.Helper()
		if _, err := os.Stat(segPath(s, "t")); err != nil || s.Len() != 1 {
			t.Fatalf("%s: the segment is gone (stat: %v, Len %d)", when, err, s.Len())
		}
	}

	fault.armed = true
	if _, ok := s.GetRecord([]byte("t"), 0, recs[0].key); ok {
		t.Fatal("a read whose index could not be read hit")
	}
	kept("after the failed read")
	if hits := readAll(t, s, "t", recs); hits != len(recs) {
		t.Fatalf("the next reads hit %d of %d records", hits, len(recs))
	}

	fault.armed = true
	if rep := s.Scrub(); rep != (ScrubReport{Scanned: 1, Errors: 1}) {
		t.Errorf("scrub under a read error: %+v, want 1 scanned, 1 error, 0 corrupt", rep)
	}
	kept("after the scrub")
}

// FuzzSegmentIndex: loadIndex never panics or allocates past the file, and
// accepts only the one encoding of what it returns — records tiling the
// file up to a table that appendIndex would have written.
func FuzzSegmentIndex(f *testing.F) {
	var good []byte
	var recs []span
	for _, r := range testSegment("t", 3, 7) {
		e := encodeEntry(r.key, r.val)
		recs = append(recs, span{int64(len(good)), int64(len(e)), crc32.ChecksumIEEE(r.key)})
		good = append(good, e...)
	}
	records := len(good)
	good = appendIndex(good, recs)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[records:])
	f.Add(append(bytes.Clone(good), 0))
	// testdata/fuzz/FuzzSegmentIndex holds the lying-index seeds, each under
	// a CRC that vouches for it: a count of 2^40, an offset past the end of
	// the file, a record that overlaps the one before it.
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ok, _ := loadIndex(bytes.NewReader(data), int64(len(data)))
		if !ok {
			if recs != nil {
				t.Fatal("rejected index returned records")
			}
			return
		}
		end := int64(0)
		for _, r := range recs {
			if r.off != end || r.n < entryHeader {
				t.Fatalf("accepted records that do not tile the file: %+v", recs)
			}
			end += r.n
		}
		if again := appendIndex(bytes.Clone(data[:end]), recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, but its records and index encode to %x", data, again)
		}
	})
}
