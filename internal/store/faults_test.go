package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minigraph/internal/store"
	"minigraph/internal/store/storetest"
)

// openFS opens a store on dir through fsys (nil = the OS).
func openFS(t *testing.T, dir string, fsys store.FS) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFaultTornWrite forces every Put to publish a torn prefix: the next Get
// must miss (never return garbage), delete the damaged file, and a clean
// re-Put must recover fully.
func TestFaultTornWrite(t *testing.T) {
	fi := storetest.New(storetest.Config{TornWrite: 1, Seed: 1})
	s := openFS(t, t.TempDir(), fi)
	key, val := []byte("k1"), []byte("payload-1")

	if err := s.Put(key, val); err != nil {
		t.Fatalf("torn Put should still succeed at the API: %v", err)
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("Get returned %q from a torn write; want miss", got)
	}
	if _, err := os.Stat(s.EntryPath(key)); !os.IsNotExist(err) {
		t.Error("damaged entry file should be deleted on read")
	}
	if c := fi.Counters(); c.TornWrites == 0 {
		t.Error("torn write not counted")
	}

	// Recovery: a clean store handle on the same dir round-trips.
	clean := openFS(t, filepath.Dir(s.Dir()), nil)
	if err := clean.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if got, ok := clean.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("recovered Get = %q, %v; want %q", got, ok, val)
	}
}

// TestFaultBitFlip forces a one-bit flip into every published entry. The
// flip may land anywhere — payload, key, checksum, structure — and in every
// case the read must miss rather than return a value that fails
// verification.
func TestFaultBitFlip(t *testing.T) {
	fi := storetest.New(storetest.Config{BitFlip: 1, Seed: 2})
	s := openFS(t, t.TempDir(), fi)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		val := []byte(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 100)))
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok && !bytes.Equal(got, val) {
			t.Fatalf("Get %q returned corrupt value %q", key, got)
		}
	}
	if c := fi.Counters(); c.BitFlips != 50 {
		t.Errorf("BitFlips = %d, want 50", c.BitFlips)
	}
}

// TestFaultTruncate forces tail truncation of every published entry.
func TestFaultTruncate(t *testing.T) {
	fi := storetest.New(storetest.Config{Truncate: 1, Seed: 3})
	s := openFS(t, t.TempDir(), fi)
	key, val := []byte("k"), []byte(strings.Repeat("v", 500))
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); ok && !bytes.Equal(got, val) {
		t.Fatalf("Get returned corrupt value %q", got)
	}
	if c := fi.Counters(); c.Truncates == 0 {
		t.Error("truncate not counted")
	}
}

// TestFaultWriteErr makes every Put fail with an injected, identifiable
// error; nothing lands on disk and the store stays consistent.
func TestFaultWriteErr(t *testing.T) {
	fi := storetest.New(storetest.Config{WriteErr: 1, Seed: 4})
	s := openFS(t, t.TempDir(), fi)
	err := s.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("Put should fail under WriteErr=1")
	}
	if !storetest.IsInjected(err) {
		t.Errorf("error %v should satisfy IsInjected", err)
	}
	if s.Len() != 0 {
		t.Errorf("failed Put indexed an entry: Len = %d", s.Len())
	}
	if c := fi.Counters(); c.WriteErrs != 1 {
		t.Errorf("WriteErrs = %d, want 1", c.WriteErrs)
	}
}

// TestFaultReadErrKeepsEntry: a transient read error is a miss, but the
// entry survives on disk and is served once the fault clears.
func TestFaultReadErrKeepsEntry(t *testing.T) {
	fi := storetest.New(storetest.Config{ReadErr: 1, Seed: 5})
	dir := t.TempDir()
	clean := openFS(t, dir, nil)
	key, val := []byte("k"), []byte("v")
	if err := clean.Put(key, val); err != nil {
		t.Fatal(err)
	}

	faulty := openFS(t, dir, fi)
	if _, ok := faulty.Get(key); ok {
		t.Fatal("Get should miss under ReadErr=1")
	}
	if faulty.Len() != 1 {
		t.Errorf("transient read error dropped the index entry: Len = %d", faulty.Len())
	}
	// The fault is transient: the clean handle still serves the bytes.
	if got, ok := clean.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("clean Get = %q, %v; want %q", got, ok, val)
	}
	if c := fi.Counters(); c.ReadErrs != 1 {
		t.Errorf("ReadErrs = %d, want 1", c.ReadErrs)
	}
}

// TestFaultDelay injects latency without affecting results.
func TestFaultDelay(t *testing.T) {
	fi := storetest.New(storetest.Config{DelayP: 1, Delay: time.Millisecond, Seed: 6})
	s := openFS(t, t.TempDir(), fi)
	key, val := []byte("k"), []byte("v")
	start := time.Now()
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, val)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Error("expected at least two injected delays (Put + Get)")
	}
	if c := fi.Counters(); c.Delays < 2 {
		t.Errorf("Delays = %d, want >= 2", c.Delays)
	}
}

// TestFaultMixedWorkload runs a probabilistic mix of every fault class over
// a few hundred operations and asserts the only observable outcomes are
// (correct value, miss, injected error) — never a wrong value — and that
// the store's accounting survives.
func TestFaultMixedWorkload(t *testing.T) {
	fi := storetest.New(storetest.Config{
		TornWrite: 0.1, BitFlip: 0.1, Truncate: 0.1,
		WriteErr: 0.1, ReadErr: 0.1, Seed: 7,
	})
	s := openFS(t, t.TempDir(), fi)
	want := make(map[string][]byte)
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%40))
		val := []byte(fmt.Sprintf("val-%d-%d", i%40, i))
		if err := s.Put(key, val); err != nil {
			if !storetest.IsInjected(err) {
				t.Fatalf("unexpected real error: %v", err)
			}
			continue
		}
		// Corruption faults mean the written bytes may be damaged; any
		// value a Get returns must still be one this key was Put with.
		want[string(key)] = val
		if got, ok := s.Get(key); ok {
			if !strings.HasPrefix(string(got), fmt.Sprintf("val-%d-", i%40)) {
				t.Fatalf("Get %q = %q: not a value ever stored under this key", key, got)
			}
		}
	}
	if fi.Counters().Total() == 0 {
		t.Error("mixed workload injected no faults")
	}
	// The store must still be internally consistent: reopening indexes
	// exactly the surviving healthy entries.
	s2 := openFS(t, filepath.Dir(s.Dir()), nil)
	for k, v := range want {
		if got, ok := s2.Get([]byte(k)); ok && !strings.HasPrefix(string(got), "val-") {
			t.Fatalf("reopened Get %q = %q; want a stored value (last was %q)", k, got, v)
		}
	}
}

// TestFaultSegment drives each fault class through the segment paths: the
// write classes hit Append and Publish, the read class hits GetRecord.
func TestFaultSegment(t *testing.T) {
	recs := store.SegmentRecords("t", 6, 400)
	for _, tc := range []struct {
		name  string
		cfg   storetest.Config
		fired func(storetest.Counters) int64
	}{
		{"torn", storetest.Config{TornWrite: 1, Seed: 1}, func(c storetest.Counters) int64 { return c.TornWrites }},
		{"flip", storetest.Config{BitFlip: 1, Seed: 2}, func(c storetest.Counters) int64 { return c.BitFlips }},
		{"truncate", storetest.Config{Truncate: 1, Seed: 3}, func(c storetest.Counters) int64 { return c.Truncates }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fi := storetest.New(tc.cfg)
			s := openFS(t, t.TempDir(), fi)
			store.PublishSegment(t, s, "t", recs) // damaged writes still succeed at the API
			if n := tc.fired(fi.Counters()); n != int64(len(recs))+1 {
				t.Errorf("%d faults fired, want one a record and one for the index", n)
			}
			if hits := store.ReadSegment(t, s, "t", recs); hits != 0 {
				t.Errorf("%d records of a segment damaged throughout hit", hits)
			}
			if _, err := os.Stat(s.SegmentPath("t")); !os.IsNotExist(err) {
				t.Error("damaged segment should be deleted on read")
			}
		})
	}

	t.Run("write error", func(t *testing.T) {
		fi := storetest.New(storetest.Config{WriteErr: 1, Seed: 4})
		s := openFS(t, t.TempDir(), fi)
		w := s.BeginSegment([]byte("t"), 0)
		err := w.Append(recs[0].KV())
		if !storetest.IsInjected(err) {
			t.Fatalf("Append under WriteErr=1: %v", err)
		}
		if err2 := w.Append(recs[1].KV()); err2 != err || w.Publish() != err {
			t.Error("the first failure should be every later call's error")
		}
		if len(store.StagingFiles(t, s)) != 0 || s.Len() != 0 {
			t.Error("a failed segment left something behind")
		}
		if c := fi.Counters(); c.WriteErrs != 1 {
			t.Errorf("WriteErrs = %d, want 1: a dead writer writes nothing", c.WriteErrs)
		}
	})

	t.Run("read error", func(t *testing.T) {
		dir := t.TempDir()
		store.PublishSegment(t, openFS(t, dir, nil), "t", recs)
		fi := storetest.New(storetest.Config{ReadErr: 1, Seed: 5})
		s := openFS(t, dir, fi)
		if hits := store.ReadSegment(t, s, "t", recs); hits != 0 {
			t.Errorf("%d hits under ReadErr=1", hits)
		}
		if s.Len() != 1 {
			t.Error("a transient read error dropped the segment")
		}
		if hits := store.ReadSegment(t, openFS(t, dir, nil), "t", recs); hits != len(recs) {
			t.Errorf("the segment did not survive read errors: %d of %d", hits, len(recs))
		}
	})

	// Every class at once, many segments, two handles: whatever happens, a
	// hit is the record's own bytes (ReadSegment fails the test otherwise).
	t.Run("mixed", func(t *testing.T) {
		fi := storetest.New(storetest.Config{TornWrite: 0.05, BitFlip: 0.05, Truncate: 0.05,
			WriteErr: 0.05, ReadErr: 0.1, Seed: 6})
		dir := t.TempDir()
		s := openFS(t, dir, fi)
		clean := openFS(t, dir, nil)
		hits := 0
		for i := 0; i < 60; i++ {
			seg := fmt.Sprintf("seg-%d", i%20)
			rs := store.SegmentRecords(seg, 6, 400)
			w := s.BeginSegment([]byte(seg), 0)
			for _, r := range rs {
				w.Append(r.KV())
			}
			if err := w.Publish(); err != nil && !storetest.IsInjected(err) {
				t.Fatalf("publish: %v", err)
			}
			hits += store.ReadSegment(t, s, seg, rs) + store.ReadSegment(t, clean, seg, rs)
		}
		if hits == 0 || fi.Counters().Total() == 0 {
			t.Fatalf("%d hits, %+v: the mix must both serve and fault", hits, fi.Counters())
		}
		if len(store.StagingFiles(t, s)) != 0 {
			t.Error("failed segments left staging files behind")
		}
	})
}
