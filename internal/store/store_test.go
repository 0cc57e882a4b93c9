package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, Options{MaxBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entrySize is the on-disk size of one entry, so budgets in these tests are
// stated in entries, whatever the envelope costs.
func entrySize(key string, val []byte) int64 {
	return int64(len(encodeEntry([]byte(key), val)))
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	key, val := []byte("key-1"), []byte(`{"cycles":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("got %q, %v; want %q", got, ok, val)
	}
	// Overwrite replaces.
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("overwrite lost: %q", got)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A second process opening the same directory sees every entry.
	s2 := open(t, dir, -1)
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d entries, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := s2.Get([]byte(fmt.Sprintf("k%d", i)))
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d: got %q, %v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.Hits != 10 || st.Misses != 0 {
		t.Errorf("reopened stats %+v", st)
	}
}

// TestCrossProcessAdoption: an entry written by one Store handle after
// another handle indexed the directory is still found by the second.
func TestCrossProcessAdoption(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, -1)
	b := open(t, dir, -1)
	if err := a.Put([]byte("late"), []byte("val")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get([]byte("late"))
	if !ok || string(got) != "val" {
		t.Fatalf("adoption failed: %q, %v", got, ok)
	}
	if b.Len() != 1 {
		t.Errorf("adopted entry not indexed: %d entries", b.Len())
	}
}

// TestCorruptEntriesAreMisses damages entries every way the loader guards
// against: truncation, garbage, version skew, and key mismatch. Every
// shape must read as a miss (and be deleted), never an error or a panic.
func TestCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	var paths []string
	for _, k := range keys {
		if err := s.Put(k, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == EntryExt {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil || len(paths) != 4 {
		t.Fatalf("want 4 entry files, got %d (%v)", len(paths), err)
	}

	// Truncate one, garbage another, version-skew a third, key-swap the
	// fourth.
	full, _ := os.ReadFile(paths[0])
	if err := os.WriteFile(paths[0], full[:len(full)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], []byte("not an entry at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	skewed, _ := os.ReadFile(paths[2])
	binary.LittleEndian.PutUint32(skewed[4:], formatVersion+1)
	if err := os.WriteFile(paths[2], skewed, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[3], encodeEntry([]byte("WRONG"), []byte("value")), 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, -1)
	for _, k := range keys {
		if _, ok := s2.Get(k); ok {
			t.Errorf("damaged entry for %q served as a hit", k)
		}
	}
	if st := s2.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("stats %+v", st)
	}
	// The damaged files are gone, so the index converges to empty.
	if n := s2.Len(); n != 0 {
		t.Errorf("%d damaged entries still indexed", n)
	}
}

// TestLRUEviction fills past the byte budget and checks (a) the bound
// holds, (b) the victims are the least-recently-used entries, where a Get
// counts as a use.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("x"), 1024)
	// Room for five entries (and their sidecars), not six.
	budget := 5*entrySize("k0", val) + 512
	s := open(t, dir, budget)
	for i := 0; i < 5; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("premature evictions: %+v", st)
	}
	// Touch k0 so it is the most recently used, then overflow by three:
	// the three untouched oldest entries (k1..k3) must be the victims.
	if _, ok := s.Get([]byte("k0")); !ok {
		t.Fatal("k0 missing before overflow")
	}
	for i := 5; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > budget {
		t.Errorf("size bound violated: %d bytes indexed", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if _, ok := s.Get([]byte("k0")); !ok {
		t.Error("recently-used k0 was evicted")
	}
	for _, dead := range []string{"k1", "k2", "k3"} {
		if _, ok := s.Get([]byte(dead)); ok {
			t.Errorf("LRU victim %s survived", dead)
		}
	}
	if _, ok := s.Get([]byte("k7")); !ok {
		t.Error("newest entry was evicted")
	}
	// On-disk footprint agrees with the index bound.
	var onDisk int64
	filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk > budget {
		t.Errorf("on-disk bytes %d exceed the bound", onDisk)
	}
}

// TestOpenTrimsOverBudgetDir: a directory warmed under a looser budget is
// brought within this store's bound at Open, not lazily on the next Put.
func TestOpenTrimsOverBudgetDir(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	val := bytes.Repeat([]byte("w"), 1024)
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, 4<<10)
	st := s2.Stats()
	if st.Bytes > 4<<10 {
		t.Errorf("open left %d bytes indexed over the 4KiB bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("open recorded no evictions for an over-budget directory")
	}
	var onDisk int64
	filepath.Walk(s2.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk > 4<<10 {
		t.Errorf("on-disk bytes %d exceed the bound after open", onDisk)
	}
}

// TestEvictionRecencyPersists: recency carries across Open via mtimes, so
// a fresh handle evicts the entries the previous process used least
// recently.
func TestEvictionRecencyPersists(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("y"), 1024)
	s := open(t, dir, -1)
	for i := 0; i < 4; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes on filesystems with coarse timestamps.
		time.Sleep(5 * time.Millisecond)
	}
	s.Get([]byte("k0")) // re-touch the oldest

	s2 := open(t, dir, 2*entrySize("k0", val)+512) // two entries fit
	if err := s2.Put([]byte("new"), val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get([]byte("k0")); !ok {
		t.Error("re-touched k0 evicted despite being recent")
	}
	if _, ok := s2.Get([]byte("k1")); ok {
		t.Error("stale k1 survived eviction")
	}
}

// TestConcurrentAccess hammers one store from many goroutines (run under
// -race in CI): concurrent Put/Get of overlapping keys with eviction
// pressure must stay consistent — every hit returns the exact value
// written for that key.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), 64<<10)
	const workers = 8
	const keysN = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%d", (w+i)%keysN))
				want := []byte(fmt.Sprintf("value-%d", (w+i)%keysN))
				switch i % 3 {
				case 0:
					if err := s.Put(k, want); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				default:
					if got, ok := s.Get(k); ok && !bytes.Equal(got, want) {
						t.Errorf("key %s: got %q want %q", k, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts == 0 || st.Hits == 0 {
		t.Errorf("degenerate run: %+v", st)
	}
}

// TestUnboundedAndDefault covers the MaxBytes sentinel values.
func TestUnboundedAndDefault(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.max != DefaultMaxBytes {
		t.Errorf("zero MaxBytes: got %d, want default %d", s.max, DefaultMaxBytes)
	}
	u := open(t, t.TempDir(), -1)
	for i := 0; i < 20; i++ {
		if err := u.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("z"), 2048)); err != nil {
			t.Fatal(err)
		}
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != 20 {
		t.Errorf("unbounded store evicted: %+v", st)
	}
}

// tieMtimes forces the identical modification time onto every entry file,
// simulating a coarse-mtime filesystem where a burst of writes ties.
func tieMtimes(t *testing.T, s *Store, keys [][]byte) {
	t.Helper()
	tie := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range keys {
		if err := os.Chtimes(s.pathFor(hashKey(k)+EntryExt), tie, tie); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionOrderDeterministicUnderMtimeTies pins the persisted-sequence
// recency: with every entry mtime tied (coarse filesystem), a reopening
// process must still reconstruct the true LRU order from the sequence
// sidecars, so cross-process eviction picks the genuinely oldest entries.
func TestEvictionOrderDeterministicUnderMtimeTies(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	keys := [][]byte{[]byte("tie-a"), []byte("tie-b"), []byte("tie-c"), []byte("tie-d")}
	val := bytes.Repeat([]byte("v"), 100)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	// Promote tie-a to most recent, then tie every mtime.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("miss on just-written key")
	}
	tieMtimes(t, s, keys)
	size := s.Stats().Bytes / int64(len(keys))

	// Room for two entries: the reopened store must keep tie-d and tie-a
	// (most recent by sequence) and evict tie-b, tie-c — mtime alone cannot
	// tell them apart.
	s2 := open(t, dir, 2*size)
	if s2.Len() != 2 {
		t.Fatalf("want 2 survivors, have %d", s2.Len())
	}
	for i, want := range []bool{true, false, false, true} {
		if _, ok := s2.Get(keys[i]); ok != want {
			t.Errorf("%s: survived=%v, want %v", keys[i], ok, want)
		}
	}
}

// TestEvictionTieBreakByKeyWithoutSidecars covers the fallback total order:
// with every sidecar missing or damaged (each reads as sequence 0) and every
// mtime tied, eviction order is still deterministic (keys break the tie), so
// two processes sharing a directory agree on the victims no matter what
// order the entries were written in.
func TestEvictionTieBreakByKeyWithoutSidecars(t *testing.T) {
	keys := [][]byte{[]byte("kb-0"), []byte("kb-1"), []byte("kb-2"), []byte("kb-3")}
	val := bytes.Repeat([]byte("v"), 100)
	damages := map[string]func(sidecar string, good []byte) error{
		"missing":   func(p string, _ []byte) error { return os.Remove(p) },
		"short":     func(p string, good []byte) error { return os.WriteFile(p, good[:seqRecord-1], 0o666) },
		"long":      func(p string, good []byte) error { return os.WriteFile(p, append(good, 0), 0o666) },
		"wrong-crc": func(p string, good []byte) error { good[0] ^= 1; return os.WriteFile(p, good, 0o666) },
		"all-zero":  func(p string, _ []byte) error { return os.WriteFile(p, make([]byte, seqRecord), 0o666) },
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			survivors := func(order []int) string {
				dir := t.TempDir()
				s := open(t, dir, -1)
				for _, i := range order {
					if err := s.Put(keys[i], val); err != nil {
						t.Fatal(err)
					}
				}
				// Damage the sequence sidecars and tie every mtime: nothing
				// but the key is left to order on.
				for _, k := range keys {
					path := s.pathFor(hashKey(k) + EntryExt)
					if s.readSeq(path) == 0 {
						t.Fatalf("%s: no sequence persisted by Put", k)
					}
					good, err := os.ReadFile(path + SeqExt)
					if err != nil {
						t.Fatal(err)
					}
					if err := damage(path+SeqExt, good); err != nil {
						t.Fatal(err)
					}
					if got := s.readSeq(path); got != 0 {
						t.Fatalf("%s: damaged sidecar read as sequence %d, want 0", k, got)
					}
				}
				tieMtimes(t, s, keys)
				size := s.Stats().Bytes / int64(len(keys))
				s2 := open(t, dir, 2*size)
				out := ""
				for i, k := range keys {
					if _, ok := s2.Get(k); ok {
						out += fmt.Sprintf("%d", i)
					}
				}
				return out
			}
			a := survivors([]int{0, 1, 2, 3})
			b := survivors([]int{3, 2, 1, 0})
			if a != b {
				t.Errorf("eviction order depends on write order under tied mtimes: %q vs %q", a, b)
			}
			if len(a) != 2 {
				t.Errorf("want 2 survivors, got %q", a)
			}
		})
	}
}

// TestSidecarConcurrentHandles: two handles on one directory (two processes
// sharing a cache) touch one entry at once. Whatever interleaving the
// in-place writes take, the sidecar must hold a sequence one of the handles
// issued, or read as 0 — never a blend of the two.
func TestSidecarConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, -1)
	key := []byte("shared")
	if err := a.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	b := open(t, dir, -1)
	// Far-apart ranges, so a blend of the two records' bytes lies in neither.
	const bBase = 0x5a5a5a5a5a5a5a00
	b.seq.Store(bBase)
	aBase := a.seq.Load()

	const touches = 300
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for i := 0; i < touches; i++ {
				if _, ok := s.Get(key); !ok {
					t.Error("miss on an entry nobody removed")
					return
				}
			}
		}(s)
	}
	wg.Wait()
	got := a.readSeq(a.pathFor(hashKey(key) + EntryExt))
	fromA := got > aBase && got <= a.seq.Load()
	fromB := got > bBase && got <= b.seq.Load()
	if got != 0 && !fromA && !fromB {
		t.Errorf("sidecar holds sequence %#x, which neither handle issued (a: (%#x, %#x], b: (%#x, %#x])",
			got, aBase, a.seq.Load(), int64(bBase), b.seq.Load())
	}
}

// TestOpenResumesSequence: a fresh handle continues the persisted sequence
// past the largest value on disk, so its writes order after everything the
// previous process did even under tied mtimes.
func TestOpenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Get([]byte("k0")) // sequence 4, the largest on disk
	s2 := open(t, dir, -1)
	if err := s2.Put([]byte("next"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := s2.readSeq(s2.pathFor(hashKey([]byte("next")) + EntryExt)); got != 5 {
		t.Errorf("first write after reopen persisted sequence %d, want 5", got)
	}
}

// TestEvictionLeavesNoOrphanSidecar: every sidecar on disk sits next to
// its entry file after evictions and deletes.
func TestEvictionLeavesNoOrphanSidecar(t *testing.T) {
	val := bytes.Repeat([]byte("o"), 512)
	s := open(t, t.TempDir(), 3*entrySize("k0", val))
	for i := 0; i < 12; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete([]byte("k11"))
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions: %+v", st)
	}
	sidecars := 0
	err := filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(p) != SeqExt {
			return err
		}
		sidecars++
		if _, err := os.Stat(strings.TrimSuffix(p, SeqExt)); err != nil {
			t.Errorf("orphan sidecar %s: %v", filepath.Base(p), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sidecars != s.Len() {
		t.Errorf("%d sidecars for %d entries", sidecars, s.Len())
	}
}

// TestOversizedPutRefused: an entry that on its own exceeds the byte
// budget must be refused outright — never admitted by evicting everything
// else (which would thrash the store into holding exactly one giant,
// rarely-reusable blob). The paper's trace blobs are the realistic
// offender: a full-run capture is tens of MB, far beyond a small
// -cache-max-bytes.
func TestOversizedPutRefused(t *testing.T) {
	s := open(t, t.TempDir(), 8<<10)
	small := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), small); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Entries != 8 || before.Evictions != 0 {
		t.Fatalf("setup stats %+v", before)
	}

	// A synthetic trace-blob-sized value: bigger than the whole budget.
	// The key already holds a small value — after the refusal it must
	// read as a miss, not keep serving the stale small value (a caller
	// mutating a key in place would otherwise see frozen state forever).
	if err := s.Put([]byte("trace-blob"), small); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("t"), 64<<10)
	if err := s.Put([]byte("trace-blob"), blob); err == nil {
		t.Fatal("oversized put accepted")
	}
	if _, ok := s.Get([]byte("trace-blob")); ok {
		t.Fatal("key readable after refused overwrite")
	}
	st := s.Stats()
	if st.RejectedPuts != 1 {
		t.Errorf("rejected puts %d, want 1", st.RejectedPuts)
	}
	if st.Entries != 8 || st.Evictions != 0 {
		t.Errorf("oversized put disturbed the store: %+v", st)
	}
	for i := 0; i < 8; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Errorf("k%d lost after refused put", i)
		}
	}

	// Unbounded stores accept anything.
	u := open(t, t.TempDir(), -1)
	if err := u.Put([]byte("trace-blob"), blob); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, -1)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Delete([]byte("k"))
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("deleted key readable")
	}
	s.Delete([]byte("never-existed")) // no-op, no panic
	// The file is gone, so a fresh process misses too.
	s2 := open(t, dir, -1)
	if _, ok := s2.Get([]byte("k")); ok {
		t.Fatal("deleted key visible to a fresh open")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Errorf("stats %+v", st)
	}
}
