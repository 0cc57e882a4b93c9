package store

import (
	"os"
	"path/filepath"
)

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Scanned is the number of entry files examined.
	Scanned int `json:"scanned"`
	// Corrupt is the number of entries that failed verification and were
	// deleted (bad magic, wrong version, lengths that do not account for
	// the file, payload checksum mismatch, a recorded key that does not
	// hash to the filename, or a classifier rejection).
	Corrupt int `json:"corrupt"`
	// OrphanChunks is the number of chunk entries deleted because no
	// healthy manifest names them: their group's manifest is absent,
	// damaged, invalidated this pass, or does not cover their index. A
	// crash after chunk writes but before the manifest write leaves
	// exactly this debris.
	OrphanChunks int `json:"orphan_chunks,omitempty"`
	// ManifestsInvalidated is the number of manifest entries deleted
	// because a chunk they reference is missing — a partial trace must
	// read as a clean miss, never replay partially. The chunks such a
	// manifest did have are deleted as orphans in the same pass.
	ManifestsInvalidated int `json:"manifests_invalidated,omitempty"`
	// BytesReclaimed is the total size of the deleted entry files.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Errors counts entries that could not be read or deleted; they are
	// left in place for a later pass.
	Errors int `json:"errors"`
}

// EntryKind is the chunk-set role of one store entry, as reported by a
// ScrubOptions.Classify callback.
type EntryKind int

const (
	// EntryOther takes no part in cross-entry checks.
	EntryOther EntryKind = iota
	// EntryManifest names a group of chunk entries; it is valid only when
	// every chunk index in [0, Chunks) is present and healthy.
	EntryManifest
	// EntryChunk belongs to a group; it is valid only while a healthy
	// manifest for the group covers its index.
	EntryChunk
)

// EntryClass describes one healthy entry's role in a chunked group.
type EntryClass struct {
	Kind EntryKind
	// Group is an opaque identifier linking a manifest to its chunks —
	// equal Group strings mean same trace. The classifier chooses the
	// scheme; the store only compares.
	Group string
	// Chunk is the entry's chunk index (Kind == EntryChunk).
	Chunk int64
	// Chunks is the number of chunks the manifest names
	// (Kind == EntryManifest).
	Chunks int64
}

// ScrubOptions extend Scrub with cross-entry knowledge the store itself
// does not have.
type ScrubOptions struct {
	// Classify inspects one individually healthy entry and reports its
	// chunk-set role. Returning ok=false condemns the entry (counted as
	// Corrupt) — the hook for "the key parses but the value is not the
	// manifest it claims to be". A nil Classify disables cross-entry
	// checks entirely, reducing ScrubWith to the classic per-entry pass.
	Classify func(key, value []byte) (class EntryClass, ok bool)
}

// Scrub walks every entry on disk, verifies its envelope end to end —
// magic, current format version, exact length, payload checksum, and that
// the recorded key hashes to the filename — and deletes entries that fail.
// Healthy entries are untouched (recency included). It returns what it
// found; scrubbing is safe to run concurrently with reads and writes, and
// an entry being written during the walk is simply seen in whichever state
// the atomic rename left visible.
func (s *Store) Scrub() ScrubReport {
	return s.ScrubWith(ScrubOptions{})
}

// scrubMember is one classified entry awaiting the cross-entry pass.
type scrubMember struct {
	hash string
	size int64
	// index (chunks) or count (manifests)
	n int64
}

// ScrubWith is Scrub plus cross-entry chunk-set validation driven by
// opts.Classify: chunk entries no healthy manifest names are deleted as
// orphans, and manifests referencing missing chunks are invalidated
// (deleted along with their surviving chunks), so a crash-torn chunked
// trace always converges to a clean miss rather than lingering as
// un-replayable partial state. Concurrency caveat: an entry Put between
// the walk and the cross-entry deletes can be deleted as a false orphan —
// its trace then re-reads as a miss and is re-captured, which is the
// fail-safe direction.
func (s *Store) ScrubWith(opts ScrubOptions) ScrubReport {
	var rep ScrubReport
	var manifests map[string]scrubMember
	var chunks map[string]map[int64]scrubMember
	_ = filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		hash, ok := entryHash(info.Name())
		if !ok {
			return nil // staging file, sidecar or stray
		}
		rep.Scanned++
		data, err := os.ReadFile(path)
		if err != nil {
			rep.Errors++
			return nil
		}
		key, value, ok := scrubEntry(data, hash)
		if ok && opts.Classify != nil {
			class, healthy := opts.Classify(key, value)
			if !healthy {
				ok = false
			} else {
				switch class.Kind {
				case EntryManifest:
					if manifests == nil {
						manifests = make(map[string]scrubMember)
					}
					manifests[class.Group] = scrubMember{hash: hash, size: info.Size(), n: class.Chunks}
				case EntryChunk:
					if chunks == nil {
						chunks = make(map[string]map[int64]scrubMember)
					}
					if chunks[class.Group] == nil {
						chunks[class.Group] = make(map[int64]scrubMember)
					}
					chunks[class.Group][class.Chunk] = scrubMember{hash: hash, size: info.Size()}
				}
			}
		}
		if ok {
			return nil
		}
		rep.Corrupt++
		rep.BytesReclaimed += info.Size()
		// Forget it in the index too (if this store had it indexed), so the
		// byte accounting stays honest.
		s.drop(hash, true)
		return nil
	})

	// Cross-entry pass: invalidate manifests missing any named chunk,
	// then delete every chunk left without a covering manifest.
	for group, m := range manifests {
		complete := true
		for i := int64(0); i < m.n; i++ {
			if _, ok := chunks[group][i]; !ok {
				complete = false
				break
			}
		}
		if complete {
			continue
		}
		rep.ManifestsInvalidated++
		rep.BytesReclaimed += m.size
		s.drop(m.hash, true)
		delete(manifests, group)
	}
	for group, set := range chunks {
		m, named := manifests[group]
		for idx, c := range set {
			if named && idx < m.n {
				continue
			}
			rep.OrphanChunks++
			rep.BytesReclaimed += c.size
			s.drop(c.hash, true)
		}
	}
	return rep
}

// scrubEntry verifies a raw entry file against the hash its filename
// claims, returning the recorded key and value for classification when
// healthy.
func scrubEntry(data []byte, hash string) (key, value []byte, ok bool) {
	key, value, ok = parseEntry(data)
	return key, value, ok && hashKey(key) == hash
}
