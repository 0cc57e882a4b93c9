package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// corruptFile mutates one byte near the end of the file at path (inside the
// value for typical entries).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*3/4] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestScrub plants every corruption class Scrub must catch — payload bit
// flip, truncation, unparseable junk, and a wrong-key entry — among healthy
// entries, and checks the pass deletes exactly the damaged ones.
func TestScrub(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	var healthy, damaged []string
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
		path := s.pathFor(hashKey(key) + EntryExt)
		if i < 4 {
			healthy = append(healthy, path)
		} else {
			damaged = append(damaged, path)
		}
	}

	// Payload bit flip (the header is intact; only the checksum catches it).
	corruptFile(t, damaged[0])
	// Truncation.
	data, err := os.ReadFile(damaged[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(damaged[1], data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	// Unparseable junk.
	if err := os.WriteFile(damaged[2], []byte("not an entry at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	// Entry whose recorded key does not hash to its filename: copy a valid
	// entry over another entry's file.
	if err := os.WriteFile(damaged[3], mustRead(t, healthy[0]), 0o666); err != nil {
		t.Fatal(err)
	}
	// A stray non-entry file Scrub must skip, not count or delete.
	stray := filepath.Join(s.Dir(), "README.txt")
	if err := os.WriteFile(stray, []byte("hi"), 0o666); err != nil {
		t.Fatal(err)
	}

	rep := s.Scrub()
	if rep.Scanned != 8 {
		t.Errorf("Scanned = %d, want 8", rep.Scanned)
	}
	if rep.Corrupt != 4 {
		t.Errorf("Corrupt = %d, want 4", rep.Corrupt)
	}
	if rep.BytesReclaimed <= 0 {
		t.Errorf("BytesReclaimed = %d, want > 0", rep.BytesReclaimed)
	}
	if rep.Errors != 0 {
		t.Errorf("Errors = %d, want 0", rep.Errors)
	}
	for _, p := range damaged {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("damaged entry %s survived the scrub", filepath.Base(p))
		}
	}
	for _, p := range healthy {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("healthy entry %s was deleted: %v", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(stray); err != nil {
		t.Error("stray non-entry file should be left alone")
	}

	// Healthy entries still serve; the index dropped exactly the corrupt
	// ones, so accounting matches a fresh reopen.
	for i := 0; i < 4; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		want := bytes.Repeat([]byte{byte(i)}, 200)
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
			t.Errorf("post-scrub Get key-%d failed", i)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d after scrub, want 4", s.Len())
	}

	// A second pass over the now-clean store finds nothing.
	rep2 := s.Scrub()
	if rep2.Scanned != 4 || rep2.Corrupt != 0 {
		t.Errorf("second scrub = %+v, want Scanned 4 Corrupt 0", rep2)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScrubEmpty runs Scrub over a store with no entries.
func TestScrubEmpty(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if rep := s.Scrub(); rep != (ScrubReport{}) {
		t.Errorf("empty scrub = %+v, want zero report", rep)
	}
}
