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
//	1: {version, key, value}.
//	2: entries carry a sha256 checksum of the value, so silent media
//	   corruption inside the payload is detected on read instead of being
//	   handed to the caller (the JSON structure alone only catches damage
//	   that breaks parsing or the recorded key).
//	3: binary envelope (see encodeEntry) in place of JSON with a base64
//	   value and hex checksum: same checks, a third fewer bytes on disk, and
//	   a read returns the value as a sub-slice of the file's bytes. Entry
//	   files are named <hash>.ent; recency sidecars are fixed 12-byte
//	   records written in place.
//
// Each version lives under its own v<N>/ directory; directories of other
// versions are never read, written or deleted.
const formatVersion = 3

// EntryExt is the filename extension of entry files.
const EntryExt = ".ent"

// DefaultMaxBytes is the byte budget applied when Options.MaxBytes is zero
// (1 GiB — roughly a million simulation outcomes).
const DefaultMaxBytes int64 = 1 << 30

// Options configure a store.
type Options struct {
	// MaxBytes bounds the total size of entry files; least-recently-used
	// entries are evicted beyond it (0 = DefaultMaxBytes, negative =
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
	// RejectedPuts counts puts refused because a single entry exceeded the
	// byte budget; the entry is never written and later reads of its key
	// miss, but the rest of the store stays intact.
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
	data := make([]byte, entryHeader, entryHeader+len(key)+len(value))
	copy(data, entryMagic)
	binary.LittleEndian.PutUint32(data[4:], formatVersion)
	binary.LittleEndian.PutUint32(data[8:], uint32(len(key)))
	binary.LittleEndian.PutUint64(data[12:], uint64(len(value)))
	sum := sha256.Sum256(value)
	copy(data[20:], sum[:])
	return append(append(data, key...), value...)
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

// entryHash returns the hex key hash an entry file's name encodes, or false
// for any other file (staging files, sidecars, strays).
func entryHash(name string) (string, bool) {
	hash, isEntry := strings.CutSuffix(name, EntryExt)
	if !isEntry || len(hash) != sha256.Size*2 {
		return "", false
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return "", false
	}
	return hash, true
}

// indexed is the in-memory bookkeeping for one on-disk entry. elem is the
// entry's node in the recency list, so touching and evicting are O(1).
type indexed struct {
	hash string
	path string
	size int64
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
	index map[string]*indexed // hex hash -> entry
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
// entries already present. Unparseable filenames are ignored; unparseable
// entries are deleted lazily when read.
func Open(dir string, opts Options) (*Store, error) {
	max := opts.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", formatVersion))
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: root, max: max, faults: opts.Faults, index: make(map[string]*indexed), lru: list.New()}

	// Index existing entries oldest-first so the recency list reflects
	// on-disk modification times. Staging files orphaned by a crashed
	// writer are swept once they are old enough that no live Put can
	// still own them.
	type found struct {
		hash string
		path string
		size int64
		mod  time.Time
		seq  int64
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
		hash, ok := entryHash(name)
		if !ok {
			return nil
		}
		entries = append(entries, found{hash: hash, path: path, size: info.Size(),
			mod: info.ModTime(), seq: readSeq(path)})
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
		return a.hash < b.hash
	})
	maxSeq := int64(0)
	for _, f := range entries {
		e := &indexed{hash: f.hash, path: f.path, size: f.size}
		e.elem = s.lru.PushFront(e)
		s.index[f.hash] = e
		s.bytes += f.size
		if f.seq > maxSeq {
			maxSeq = f.seq
		}
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

func (s *Store) pathFor(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+EntryExt)
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
func (s *Store) Get(key []byte) ([]byte, bool) {
	hash := hashKey(key)
	if s.faults != nil {
		s.faults.delay()
		if s.faults.failRead() {
			// Transient read failure: the entry stays on disk and indexed
			// (same semantics as a real transient ReadFile error below).
			s.misses.Add(1)
			return nil, false
		}
	}

	s.mu.Lock()
	e, ok := s.index[hash]
	var path string
	if ok {
		path = e.path
	} else {
		// The file may have been written by another process after Open.
		path = s.pathFor(hash)
	}
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			// The file is gone (evicted by another process): forget it.
			// Transient read failures keep the index entry — the bytes
			// are still on disk and must stay budgeted.
			s.drop(hash, false)
		}
		s.misses.Add(1)
		return nil, false
	}
	val, ok := decodeEntry(data, key)
	if !ok {
		s.drop(hash, true)
		s.misses.Add(1)
		return nil, false
	}

	s.mu.Lock()
	var victims []string
	if e, ok := s.index[hash]; ok {
		s.lru.MoveToFront(e.elem)
	} else {
		// Found on disk but not indexed (another process wrote it): adopt
		// it, evicting if the adoption pushes past the byte budget.
		e := &indexed{hash: hash, path: path, size: int64(len(data))}
		e.elem = s.lru.PushFront(e)
		s.index[hash] = e
		s.bytes += int64(len(data))
		victims = s.evictLocked()
	}
	s.mu.Unlock()
	for _, v := range victims {
		removeEntry(v)
	}
	s.touch(path)

	s.hits.Add(1)
	return val, true
}

// decodeEntry parses an on-disk envelope and verifies it holds key with an
// intact payload.
func decodeEntry(data []byte, key []byte) ([]byte, bool) {
	k, value, ok := parseEntry(data)
	return value, ok && bytes.Equal(k, key)
}

// drop forgets (and optionally deletes) the entry for hash.
func (s *Store) drop(hash string, remove bool) {
	s.mu.Lock()
	e, ok := s.index[hash]
	if ok {
		delete(s.index, hash)
		s.lru.Remove(e.elem)
		s.bytes -= e.size
	}
	s.mu.Unlock()
	if remove {
		path := s.pathFor(hash)
		if ok {
			path = e.path
		}
		removeEntry(path)
	}
}

// Delete removes the entry stored under key (a no-op if absent).
func (s *Store) Delete(key []byte) {
	s.drop(hashKey(key), true)
}

// Put stores value under key, atomically replacing any previous entry, and
// evicts least-recently-used entries if the byte budget is now exceeded.
// An entry that on its own exceeds the byte budget is refused outright
// (counted in Stats.RejectedPuts): admitting it would evict every other
// entry only to leave a store that still cannot hold the working set.
func (s *Store) Put(key, value []byte) error {
	hash := hashKey(key)
	data := encodeEntry(key, value)
	if s.faults != nil {
		s.faults.delay()
		if s.faults.failWrite() {
			return fmt.Errorf("store: write %s: %w", hash[:8], errInjectedWrite)
		}
		// Corrupt the bytes about to hit disk — the envelope checksum (or,
		// for a truncation, the length equation) must catch this on the next
		// Get.
		data = s.faults.corrupt(data)
	}
	if s.max >= 0 && int64(len(data)) > s.max {
		s.rejected.Add(1)
		// Keep the documented semantics — after a refused put, reads of
		// the key miss. Leaving an older value visible would hand callers
		// that mutate a key in place (the async-job records) a stale state
		// forever.
		s.drop(hash, true)
		return fmt.Errorf("store: %d-byte entry exceeds the %d-byte budget", len(data), s.max)
	}

	path := s.pathFor(hash)
	shard := filepath.Dir(path)
	tmp, err := os.CreateTemp(shard, "."+hash+".tmp-")
	if errors.Is(err, fs.ErrNotExist) {
		// First entry of its shard: only now pay for the directory.
		if err = os.MkdirAll(shard, 0o777); err == nil {
			tmp, err = os.CreateTemp(shard, "."+hash+".tmp-")
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publish: %w", err)
	}

	s.mu.Lock()
	if old, ok := s.index[hash]; ok {
		s.bytes -= old.size
		s.lru.Remove(old.elem)
	}
	e := &indexed{hash: hash, path: path, size: int64(len(data))}
	e.elem = s.lru.PushFront(e)
	s.index[hash] = e
	s.bytes += int64(len(data))
	victims := s.evictLocked()
	s.mu.Unlock()

	for _, v := range victims {
		removeEntry(v)
	}
	s.touch(path)
	s.puts.Add(1)
	return nil
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
		delete(s.index, oldest.hash)
		s.bytes -= oldest.size
		victims = append(victims, oldest.path)
		s.evictions.Add(1)
	}
	return victims
}
