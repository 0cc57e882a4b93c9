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
//     process restarts in the files' modification times, the only recency
//     the store persists: every Put and every hit stamps the file with the
//     store's next strictly later instant, and Open orders by (mtime, key),
//     so every process reconstructs the same eviction order. On a
//     filesystem that keeps whole seconds only, files touched within one
//     second fall back to key order after a restart.
//   - Values only ever written together, read in order and evicted together
//     (the chunks of one trace) share one segment file: see segment.go.
//   - Nothing is synced, by design: every byte is verified on read, so a
//     write a crash loses or tears is a miss, and publishing is a rename.
//     Every file operation goes through one seam, FS (fs.go), which is where
//     tests inject faults and rebuild the directory a crash could leave.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
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
//	   Later v4 builds write no sidecars (recency is the mtime alone) and
//	   Open deletes any an earlier one left; entry and segment bytes are
//	   unchanged.
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
	// FS is the file system the store's files live in (nil = OS).
	FS FS
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
// else (staging files, strays) is neither.
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
	dir  string
	max  int64
	fsys FS

	mu    sync.Mutex
	index map[string]*indexed // file name -> entry or segment
	lru   *list.List          // of *indexed; front = most recently used
	bytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	rejected  atomic.Int64
	evictions atomic.Int64

	// clock is the last instant touch stamped on a file, in Unix
	// nanoseconds. Open resumes it past the newest mtime it indexes.
	clock atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir and indexes the
// entries and segments already present. Unparseable filenames are ignored;
// unparseable files are deleted lazily when read.
func Open(dir string, opts Options) (*Store, error) {
	limit := opts.MaxBytes
	if limit == 0 {
		limit = DefaultMaxBytes
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OS{}
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", formatVersion))
	if err := fsys.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: root, max: limit, fsys: fsys, index: make(map[string]*indexed), lru: list.New()}

	// Index existing files oldest-first so the recency list reflects
	// on-disk modification times. Staging files orphaned by a crashed
	// writer are swept once they are old enough that no live Put or segment
	// writer can still own them (every append freshens a staging file).
	type found struct {
		indexed
		mod int64 // Unix ns
	}
	var entries []found
	stale := time.Now().Add(-10 * time.Minute)
	err := fsys.Walk(root, func(path string, info fs.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil // unreadable subtrees are simply not indexed
		}
		name := info.Name()
		if strings.Contains(name, ".tmp-") {
			if info.ModTime().Before(stale) {
				_ = fsys.Remove(path)
			}
			return nil
		}
		if strings.HasSuffix(name, ".seq") {
			_ = fsys.Remove(path) // a recency sidecar an earlier build wrote
			return nil
		}
		if _, ok := storedName(name); ok {
			entries = append(entries, found{indexed{name: name, size: info.Size()}, info.ModTime().UnixNano()})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: index %s: %w", root, err)
	}
	// Recency order, least recent first. Modification time is the
	// cross-process signal; the key settles a tie, so every process opening
	// this directory reconstructs one order.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.mod != b.mod {
			return a.mod < b.mod
		}
		return a.name < b.name
	})
	for i := range entries {
		e := &entries[i].indexed
		e.elem = s.lru.PushFront(e)
		s.index[e.name] = e
		s.bytes += e.size
	}
	if n := len(entries); n > 0 {
		s.clock.Store(entries[n-1].mod)
	}
	// A directory warmed under a larger (or unbounded) budget is trimmed
	// to this store's bound immediately, not only on the next Put.
	s.mu.Lock()
	victims := s.evictLocked()
	s.mu.Unlock()
	for _, v := range victims {
		_ = fsys.Remove(v)
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

// touch stamps the file at path as the most recently used: its mtime
// becomes the store's next instant, now or, if the clock has already
// reached now, one nanosecond past its last stamp, so one process's touches
// never tie. Best-effort — the in-memory LRU stays exact regardless.
func (s *Store) touch(path string) {
	now := time.Now().UnixNano()
	for {
		last := s.clock.Load()
		if t := max(now, last+1); s.clock.CompareAndSwap(last, t) {
			stamp := time.Unix(0, t)
			_ = s.fsys.Chtimes(path, stamp, stamp)
			return
		}
	}
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
	// The file may have been written by another process after Open, so an
	// entry this store has not indexed is still looked for.
	data, err := s.fsys.ReadFile(s.pathFor(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
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
		_ = s.fsys.Remove(v)
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
		_ = s.fsys.Remove(s.pathFor(name))
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
	f    File
	off  int64 // bytes written so far
	err  error
}

func (s *Store) stage(name string) staged {
	shard := filepath.Dir(s.pathFor(name))
	f, err := s.fsys.CreateTemp(shard, "."+name+".tmp-")
	if errors.Is(err, fs.ErrNotExist) {
		// First file of its shard: only now pay for the directory.
		if err = s.fsys.MkdirAll(shard, 0o777); err == nil {
			f, err = s.fsys.CreateTemp(shard, "."+name+".tmp-")
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
			w.s.fsys.Remove(w.f.Name())
		}
	}
	return w.err
}

// write puts data at the end of the file.
func (w *staged) write(data []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.WriteAt(data, w.off); err != nil {
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
	if err := w.s.fsys.Rename(w.f.Name(), w.s.pathFor(w.name)); err != nil {
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
