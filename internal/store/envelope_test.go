package store

import (
	"bytes"
	"os"
	"testing"
)

// TestEnvelopeEveryBitAndPrefix is the envelope's integrity claim, checked
// exhaustively on a small entry: every single-bit flip and every strict
// prefix of the file reads as a miss that deletes the file — never a value,
// never a panic — and Scrub counts the same damage as corrupt.
func TestEnvelopeEveryBitAndPrefix(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	key, val := []byte("key"), []byte("some value")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor(hashKey(key) + EntryExt)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, encodeEntry(key, val)) {
		t.Fatal("Put wrote something other than encodeEntry's bytes")
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
	gone := func(what string, i int) {
		t.Helper()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("damage %d: file survived %s (stat: %v)", i, what, err)
		}
	}
	for i, d := range damaged {
		if err := os.WriteFile(path, d, 0o666); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Fatalf("damage %d (%d of %d bytes): Get returned %q", i, len(d), len(good), got)
		}
		gone("Get", i)

		if err := os.WriteFile(path, d, 0o666); err != nil {
			t.Fatal(err)
		}
		if rep := s.Scrub(); rep.Scanned != 1 || rep.Corrupt != 1 || rep.Errors != 0 {
			t.Fatalf("damage %d: scrub %+v, want 1 scanned, 1 corrupt", i, rep)
		}
		gone("Scrub", i)
	}

	// The intact bytes still serve, and scrub leaves them alone.
	if err := os.WriteFile(path, good, 0o666); err != nil {
		t.Fatal(err)
	}
	if rep := s.Scrub(); rep.Scanned != 1 || rep.Corrupt != 0 {
		t.Fatalf("scrub of the intact entry: %+v", rep)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("intact entry: got %q, %v", got, ok)
	}
}

// TestEmptyValueIsAHit: a stored empty value is a value, not a miss.
func TestEmptyValueIsAHit(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	for _, val := range [][]byte{{}, nil} {
		if err := s.Put([]byte("empty"), val); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get([]byte("empty"))
		if !ok || got == nil || len(got) != 0 {
			t.Errorf("Put(%#v): got %#v, %v; want a non-nil empty hit", val, got, ok)
		}
	}
}

// FuzzEntryEnvelope: parseEntry never panics, and accepts only the one
// encoding of what it returns — there is no second spelling of an entry for
// damage to land on.
func FuzzEntryEnvelope(f *testing.F) {
	good := encodeEntry([]byte("key"), []byte("value"))
	f.Add(good)
	f.Add(encodeEntry(nil, nil))
	f.Add(good[:len(good)-1])
	f.Add(good[:entryHeader])
	f.Add(append(bytes.Clone(good), 0))
	// testdata/fuzz/FuzzEntryEnvelope holds the lying-header seeds.
	f.Fuzz(func(t *testing.T, data []byte) {
		key, value, ok := parseEntry(data)
		if !ok {
			return
		}
		if value == nil {
			t.Fatal("accepted entry with a nil value")
		}
		if again := encodeEntry(key, value); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, but its key and value encode to %x", data, again)
		}
	})
}
