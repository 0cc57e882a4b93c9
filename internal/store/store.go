// Package store is a content-addressed, disk-backed result store. Values
// are opaque byte payloads addressed by opaque byte keys (the simulation
// layer uses the canonical versioned SimKey encoding); the store hashes the
// key to place the entry on disk, so a directory can be shared by any
// number of processes over any number of runs.
//
// Design points:
//
//   - Writes are atomic: an entry is staged in a temporary file in the
//     same directory and renamed into place, so readers never observe a
//     half-written entry and concurrent writers of the same key settle on
//     one complete copy.
//   - Reads are corruption-tolerant: an entry whose binary envelope fails
//     any check — magic, version, exact length, payload checksum — or whose
//     recorded key does not match the request (hash collision, truncation,
//     stray file) is treated as a miss and deleted, never an error. Any
//     flipped bit or truncation of an entry file is a miss.
//   - The store is LRU-bounded: when the configured byte budget is
//     exceeded, least-recently-used entries are evicted. Recency survives
//     process restarts via file modification times plus a persisted
//     monotonic sequence sidecar: coarse-mtime filesystems (1s or worse)
//     tie whole bursts of writes, so ordering is (mtime, sequence, key) —
//     the sequence disambiguates same-process bursts, and the key breaks
//     any remaining tie so every process reconstructs the same eviction
//     order. Sidecars are 12 bytes and are not charged to the budget.
//   - Values only ever written together, read in order and evicted together
//     (the chunks of one trace) share one segment file: see segment.go.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// formatVersion is the on-disk entry envelope version. It is independent
// of the payload's own versioning (the simulation codec versions its
// encodings separately).
//
// Version history:
//
//	1: JSON {version, key, value}.
//	2: adds a sha256 of the value, so damage inside the payload is a miss.
//	3: binary envelope (see encodeEntry) in place of JSON; entry files are
//	   <hash>.ent, recency sidecars fixed 12-byte records written in place.
//	4: values written together share one segment file, <hash>.seg (see
//	   segment.go), where v3 spent an entry file and a sidecar on each.
//
// Each version lives under its own v<N>/ directory; directories of other
// versions are never read, written or deleted.
const formatVersion = 4

// EntryExt and SegExt are the filename extensions of entry and segment
// files. The store indexes, budgets and evicts both alike, by file name.
const (
	EntryExt = ".ent"
	SegExt   = ".seg"
)

// DefaultMaxBytes is the byte budget applied when Options.MaxBytes is zero
// (1 GiB — roughly a million simulation outcomes).
const DefaultMaxBytes int64 = 1 << 30

// Options configure a store.
type Options struct {
	// MaxBytes bounds the total size of entry and segment files; the least
	// recently used are evicted beyond it (0 = DefaultMaxBytes, negative =
	// unbounded).
	MaxBytes int64
	// Faults, when non-nil, injects disk faults into Put and Get (tests
	// only; see FaultInjector). nil costs one pointer check per operation.
	Faults *FaultInjector
}

// Stats is a point-in-time snapshot of the store's counters and footprint.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// RejectedPuts counts puts refused because a single entry or segment
	// exceeded the byte budget; it is never written and later reads of its
	// key miss, but the rest of the store stays intact.
	RejectedPuts int64 `json:"rejected_puts"`
	Evictions    int64 `json:"evictions"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
}

// The on-disk envelope, little-endian:
//
//	magic "MGSE" | version u32 | keyLen u32 | valLen u64 | sha256(value) 32 B | key | value
//
// The key is recorded verbatim so a read can verify it got the entry it
// asked for; the checksum catches payload corruption; the lengths must
// account for every byte of the file, so a truncated or extended file never
// parses (nor would a key of 4 GiB or more: its length would not fit).
const (
	entryMagic  = "MGSE"
	entryHeader = 4 + 4 + 4 + 8 + sha256.Size
)

// encodeEntry builds the envelope for key and value.
func encodeEntry(key, value []byte) []byte {
	return appendEntry(make([]byte, 0, entryHeader+len(key)+len(value)), key, value)
}

// appendEntry appends the envelope for key and value to dst.
func appendEntry(dst, key, value []byte) []byte {
	dst = append(dst, entryMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, formatVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(value)))
	sum := sha256.Sum256(value)
	return append(append(append(dst, sum[:]...), key...), value...)
}

// parseEntry verifies an envelope end to end and returns the recorded key
// and the value as sub-slices of data. The value is non-nil when ok, even
// if empty.
func parseEntry(data []byte) (key, value []byte, ok bool) {
	if len(data) < entryHeader || string(data[:4]) != entryMagic ||
		binary.LittleEndian.Uint32(data[4:]) != formatVersion {
		return nil, nil, false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(data[8:]))
	valLen := binary.LittleEndian.Uint64(data[12:])
	rest := uint64(len(data) - entryHeader)
	if keyLen > rest || valLen != rest-keyLen {
		return nil, nil, false
	}
	end := entryHeader + keyLen
	key, value = data[entryHeader:end:end], data[end:] // capped: appending to key must not reach value
	if sha256.Sum256(value) != [sha256.Size]byte(data[20:entryHeader]) {
		return nil, nil, false
	}
	return key, value, true
}

// storedName reports whether name is an entry's or a segment's file name —
// a hex key hash plus EntryExt or SegExt — and returns the hash. Anything
// else (staging files, sidecars, strays) is neither.
func storedName(name string) (hash string, ok bool) {
	hash, ok = strings.CutSuffix(name, EntryExt)
	if !ok {
		hash, ok = strings.CutSuffix(name, SegExt)
	}
	if !ok || len(hash) != sha256.Size*2 {
		return "", false
	}
	_, err := hex.DecodeString(hash)
	return hash, err == nil
}

// indexed is the in-memory bookkeeping for one on-disk entry or segment.
// elem is its node in the recency list, so touching and evicting are O(1).
type indexed struct {
	name string // file name: key hash + extension
	size int64
	recs []span // a segment's record index once loaded; nil for an entry
	elem *list.Element
}

// Store is a disk-backed key/value store. It is safe for concurrent use;
// multiple processes may share a directory (eviction decisions are then
// per-process approximations, which is acceptable for a cache).
type Store struct {
	dir    string
	max    int64
	faults *FaultInjector // nil outside fault-injection tests

	mu    sync.Mutex
	index map[string]*indexed // file name -> entry or segment
	lru   *list.List          // of *indexed; front = most recently used
	bytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	rejected  atomic.Int64
	evictions atomic.Int64

	// seq is the recency sequence: every Put and every Get hit takes the
	// next value and persists it in the entry's sidecar. Open resumes it
	// past the largest value found on disk.
	seq atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir and indexes the
// entries and segments already present. Unparseable filenames are ignored;
// unparseable files are deleted lazily when read.
func Open(dir string, opts Options) (*Store, error) {
	limit := opts.MaxBytes
	if limit == 0 {
		limit = DefaultMaxBytes
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", formatVersion))
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: root, max: limit, faults: opts.Faults, index: make(map[string]*indexed), lru: list.New()}

	// Index existing files oldest-first so the recency list reflects
	// on-disk modification times. Staging files orphaned by a crashed
	// writer are swept once they are old enough that no live Put or segment
	// writer can still own them (every append freshens a staging file).
	type found struct {
		indexed
		mod time.Time
		seq int64
	}
	var entries []found
	var sidecars []string
	stale := time.Now().Add(-10 * time.Minute)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil // unreadable subtrees are simply not indexed
		}
		name := info.Name()
		if strings.Contains(name, ".tmp-") {
			if info.ModTime().Before(stale) {
				_ = os.Remove(path)
			}
			return nil
		}
		if strings.HasSuffix(name, seqSuffix) {
			if info.ModTime().Before(stale) {
				sidecars = append(sidecars, path) // orphan-sweep candidate
			}
			return nil
		}
		if _, ok := storedName(name); ok {
			entries = append(entries, found{indexed{name: name, size: info.Size()},
				info.ModTime(), readSeq(path)})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: index %s: %w", root, err)
	}
	// Recency order, least recent first. Modification time is the
	// cross-process signal; the persisted sequence orders writes that a
	// coarse-mtime filesystem has tied; the key settles whatever remains,
	// so every process opening this directory reconstructs one order.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if !a.mod.Equal(b.mod) {
			return a.mod.Before(b.mod)
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.name < b.name
	})
	maxSeq := int64(0)
	for i := range entries {
		e := &entries[i].indexed
		e.elem = s.lru.PushFront(e)
		s.index[e.name] = e
		s.bytes += e.size
		maxSeq = max(maxSeq, entries[i].seq)
	}
	s.seq.Store(maxSeq)
	// Sweep sidecars orphaned by a crashed eviction (entry gone, sidecar
	// left behind). Only stale ones: a fresh sidecar may belong to a Put
	// that is completing in another process right now.
	for _, sc := range sidecars {
		if _, err := os.Stat(strings.TrimSuffix(sc, seqSuffix)); os.IsNotExist(err) {
			_ = os.Remove(sc)
		}
	}
	// A directory warmed under a larger (or unbounded) budget is trimmed
	// to this store's bound immediately, not only on the next Put.
	s.mu.Lock()
	victims := s.evictLocked()
	s.mu.Unlock()
	for _, v := range victims {
		removeEntry(v)
	}
	return s, nil
}

// Dir returns the store's root directory (including the format-version
// component).
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		RejectedPuts: s.rejected.Load(),
		Evictions:    s.evictions.Load(),
		Entries:      entries,
		Bytes:        bytes,
	}
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

func (s *Store) pathFor(name string) string {
	return filepath.Join(s.dir, name[:2], name)
}

func hashKey(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

// seqSuffix names the recency sidecar next to each entry file.
const seqSuffix = ".seq"

// seqRecord is the sidecar's size: seq u64 | crc32 of those 8 bytes, both
// little-endian.
const seqRecord = 12

// readSeq parses the sidecar for the entry at path; a missing sidecar, or
// one of the wrong length or with a wrong CRC, reads as 0 (ordering then
// falls back to mtime and key).
func readSeq(path string) int64 {
	data, err := os.ReadFile(path + seqSuffix)
	if err != nil || len(data) != seqRecord ||
		crc32.ChecksumIEEE(data[:8]) != binary.LittleEndian.Uint32(data[8:]) {
		return 0
	}
	return max(int64(binary.LittleEndian.Uint64(data)), 0)
}

// touch persists recency for the entry at path: mtime for cross-process
// ordering, the next sequence for same-mtime disambiguation. Best-effort —
// the in-memory LRU stays exact regardless.
func (s *Store) touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	// One in-place write of the whole record: no staging file, no rename.
	// Concurrent cross-process touches of one entry leave one of the two
	// records, or a torn mix whose CRC fails and reads as 0 — never a
	// sequence neither process issued.
	var rec [seqRecord]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(s.seq.Add(1)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[:8]))
	if f, err := os.OpenFile(path+seqSuffix, os.O_WRONLY|os.O_CREATE, 0o666); err == nil {
		_, _ = f.WriteAt(rec[:], 0) // best-effort, as is the Close below
		_ = f.Close()
	}
	// A concurrent eviction may have removed the entry (and its sidecar)
	// between our lock release and the write above; don't leave an orphan
	// sidecar behind for the lifetime of the process.
	if _, err := os.Stat(path); os.IsNotExist(err) {
		_ = os.Remove(path + seqSuffix)
	}
}

// removeEntry deletes an evicted entry file together with its sidecar.
func removeEntry(path string) {
	_ = os.Remove(path)
	_ = os.Remove(path + seqSuffix)
}

// Get returns the value stored under key, or (nil, false). Damaged or
// mismatched entries are deleted and reported as misses.
func (s *Store) Get(key []byte) ([]byte, bool) { return s.counted(s.get(key)) }

// counted tallies one read as a hit or a miss.
func (s *Store) counted(val []byte, ok bool) ([]byte, bool) {
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return val, ok
}

func (s *Store) get(key []byte) ([]byte, bool) {
	name := hashKey(key) + EntryExt
	if s.faults.read() {
		// Transient read failure: the entry stays on disk and indexed
		// (same semantics as a real transient ReadFile error below).
		return nil, false
	}
	// The file may have been written by another process after Open, so an
	// entry this store has not indexed is still looked for.
	data, err := os.ReadFile(s.pathFor(name))
	if err != nil {
		if os.IsNotExist(err) {
			// Gone (evicted by another process): forget it. A transient
			// failure keeps the index entry — the bytes are still on disk
			// and must stay budgeted.
			s.drop(name, false)
		}
		return nil, false
	}
	k, val, ok := parseEntry(data)
	if !ok || !bytes.Equal(k, key) {
		s.drop(name, true)
		return nil, false
	}
	s.admit(name, int64(len(data)), nil)
	return val, true
}

// admit makes the file just written to (or read from) name's path the most
// recently used thing in the store, in memory and on disk: it indexes a
// file this store did not know (another process wrote it), re-sizes one it
// did, and evicts whatever the change pushes past the byte budget.
func (s *Store) admit(name string, size int64, recs []span) {
	s.mu.Lock()
	e, ok := s.index[name]
	if ok {
		s.lru.MoveToFront(e.elem)
	} else {
		e = &indexed{name: name}
		e.elem = s.lru.PushFront(e)
		s.index[name] = e
	}
	s.bytes += size - e.size
	e.size, e.recs = size, recs
	victims := s.evictLocked()
	s.mu.Unlock()
	for _, v := range victims {
		removeEntry(v)
	}
	s.touch(s.pathFor(name))
}

// drop forgets (and optionally deletes) the entry or segment file name.
func (s *Store) drop(name string, remove bool) {
	s.mu.Lock()
	if e, ok := s.index[name]; ok {
		delete(s.index, name)
		s.lru.Remove(e.elem)
		s.bytes -= e.size
	}
	s.mu.Unlock()
	if remove {
		removeEntry(s.pathFor(name))
	}
}

// Delete removes the entry stored under key (a no-op if absent).
func (s *Store) Delete(key []byte) {
	s.drop(hashKey(key)+EntryExt, true)
}

// DeleteSegment removes the segment published under key (a no-op if absent).
func (s *Store) DeleteSegment(key []byte) {
	s.drop(hashKey(key)+SegExt, true)
}

// staged is a file on its way into the store: written under a temporary
// name beside its final path, visible to no reader until publish renames it
// there. The first failure is sticky and removes the file, so what a reader
// can see is always a whole entry or a whole segment.
type staged struct {
	s    *Store
	name string
	f    *os.File
	off  int64 // bytes the writer meant to write so far
	err  error
}

func (s *Store) stage(name string) staged {
	shard := filepath.Dir(s.pathFor(name))
	f, err := os.CreateTemp(shard, "."+name+".tmp-")
	if errors.Is(err, fs.ErrNotExist) {
		// First file of its shard: only now pay for the directory.
		if err = os.MkdirAll(shard, 0o777); err == nil {
			f, err = os.CreateTemp(shard, "."+name+".tmp-")
		}
	}
	if err != nil {
		err = fmt.Errorf("store: %w", err)
	}
	return staged{s: s, name: name, f: f, err: err}
}

func (w *staged) fail(err error) error {
	if w.err == nil {
		w.err = err
		if w.f != nil {
			w.f.Close()
			os.Remove(w.f.Name())
		}
	}
	return w.err
}

// write puts data at the end of the file, through the fault injector's
// write classes. The offset advances by what was meant to be written: a
// torn or truncated record of a segment leaves a hole its checksum exposes
// on read, not a shifted tail.
func (w *staged) write(data []byte) error {
	if w.err != nil {
		return w.err
	}
	out, err := w.s.faults.write(data)
	if err == nil {
		_, err = w.f.WriteAt(out, w.off)
	}
	if err != nil {
		return w.fail(fmt.Errorf("store: write %s: %w", w.name[:8], err))
	}
	w.off += int64(len(data))
	return nil
}

// publish renames the file into place as the store's most recently used,
// atomically replacing any previous one of its name.
func (w *staged) publish(recs []span) error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(fmt.Errorf("store: close: %w", err))
	}
	if err := os.Rename(w.f.Name(), w.s.pathFor(w.name)); err != nil {
		return w.fail(fmt.Errorf("store: publish: %w", err))
	}
	w.f = nil // nothing left for a later fail to remove
	w.s.admit(w.name, w.off, recs)
	w.s.puts.Add(int64(max(len(recs), 1))) // one a record; an entry is one
	return nil
}

// refuse counts a write of size bytes the byte budget cannot hold.
func (s *Store) refuse(size int64) error {
	s.rejected.Add(1)
	return fmt.Errorf("store: %d bytes exceed the %d-byte budget", size, s.max)
}

// Put stores value under key, atomically replacing any previous entry, and
// evicts least-recently-used entries if the byte budget is now exceeded.
// An entry that on its own exceeds the byte budget is refused outright
// (counted in Stats.RejectedPuts): admitting it would evict every other
// entry only to leave a store that still cannot hold the working set.
func (s *Store) Put(key, value []byte) error {
	name := hashKey(key) + EntryExt
	data := encodeEntry(key, value)
	if s.max >= 0 && int64(len(data)) > s.max {
		// Keep the documented semantics — after a refused put, reads of
		// the key miss. Leaving an older value visible would hand callers
		// that mutate a key in place (the async-job records) a stale state
		// forever.
		s.drop(name, true)
		return s.refuse(int64(len(data)))
	}
	w := s.stage(name)
	w.write(data) // a failure is sticky: publish reports it
	return w.publish(nil)
}

// evictLocked trims the recency list to the byte budget from the LRU end
// — O(1) per victim — keeping at least the most recent entry (the one
// just written), and returns the file paths to delete. Caller holds s.mu.
func (s *Store) evictLocked() []string {
	if s.max < 0 {
		return nil
	}
	var victims []string
	for s.bytes > s.max && s.lru.Len() > 1 {
		oldest := s.lru.Back().Value.(*indexed)
		s.lru.Remove(oldest.elem)
		delete(s.index, oldest.name)
		s.bytes -= oldest.size
		victims = append(victims, s.pathFor(oldest.name))
		s.evictions.Add(1)
	}
	return victims
}
