package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mustOpen opens a store in a fresh temp dir with the given fault injector.
func mustOpen(t *testing.T, faults *FaultInjector) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFaultTornWrite forces every Put to publish a torn prefix: the next Get
// must miss (never return garbage), delete the damaged file, and a clean
// re-Put must recover fully.
func TestFaultTornWrite(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{TornWrite: 1, Seed: 1})
	s := mustOpen(t, fi)
	key, val := []byte("k1"), []byte("payload-1")

	if err := s.Put(key, val); err != nil {
		t.Fatalf("torn Put should still succeed at the API: %v", err)
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("Get returned %q from a torn write; want miss", got)
	}
	if _, err := os.Stat(s.pathFor(hashKey(key) + EntryExt)); !os.IsNotExist(err) {
		t.Error("damaged entry file should be deleted on read")
	}
	if c := fi.Counters(); c.TornWrites == 0 {
		t.Error("torn write not counted")
	}

	// Recovery: a clean store handle on the same dir round-trips.
	clean, err := Open(filepath.Dir(s.Dir()), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	fi := NewFaultInjector(FaultConfig{BitFlip: 1, Seed: 2})
	s := mustOpen(t, fi)
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
	fi := NewFaultInjector(FaultConfig{Truncate: 1, Seed: 3})
	s := mustOpen(t, fi)
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
	fi := NewFaultInjector(FaultConfig{WriteErr: 1, Seed: 4})
	s := mustOpen(t, fi)
	err := s.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("Put should fail under WriteErr=1")
	}
	if !IsInjected(err) {
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
	fi := NewFaultInjector(FaultConfig{ReadErr: 1, Seed: 5})
	dir := t.TempDir()
	clean, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, val := []byte("k"), []byte("v")
	if err := clean.Put(key, val); err != nil {
		t.Fatal(err)
	}

	faulty, err := Open(dir, Options{Faults: fi})
	if err != nil {
		t.Fatal(err)
	}
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
	fi := NewFaultInjector(FaultConfig{DelayP: 1, Delay: time.Millisecond, Seed: 6})
	s := mustOpen(t, fi)
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
	fi := NewFaultInjector(FaultConfig{
		TornWrite: 0.1, BitFlip: 0.1, Truncate: 0.1,
		WriteErr: 0.1, ReadErr: 0.1, Seed: 7,
	})
	s := mustOpen(t, fi)
	want := make(map[string][]byte)
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%40))
		val := []byte(fmt.Sprintf("val-%d-%d", i%40, i))
		if err := s.Put(key, val); err != nil {
			if !IsInjected(err) {
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
	s2, err := Open(filepath.Dir(s.Dir()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got, ok := s2.Get([]byte(k)); ok && !strings.HasPrefix(string(got), "val-") {
			t.Fatalf("reopened Get %q = %q; want a stored value (last was %q)", k, got, v)
		}
	}
}
