package store

import (
	"io/fs"
	"strings"
)

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Scanned is the number of entry and segment files examined.
	Scanned int `json:"scanned"`
	// Corrupt is the number of files that failed verification and were
	// deleted: an entry with bad magic, a wrong version, lengths that do
	// not account for the file, a payload checksum mismatch or a recorded
	// key that does not hash to the filename; a segment whose index does
	// not verify, any of whose records fails those same checks, or whose
	// last record's key does not hash to the filename.
	Corrupt int `json:"corrupt"`
	// BytesReclaimed is the total size of the deleted files.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Errors counts files that could not be read; they are left in place
	// for a later pass.
	Errors int `json:"errors"`
}

// Scrub walks every entry and segment on disk, verifies it end to end and
// deletes what fails (see ScrubReport.Corrupt). A segment is checked and
// deleted as the unit it is: there is no partial trace to converge, so no
// pass over groups of files. Healthy files are untouched (recency
// included). Scrubbing is safe to run concurrently with reads and writes:
// a file being written during the walk is simply seen in whichever state
// the atomic rename left visible.
func (s *Store) Scrub() ScrubReport {
	var rep ScrubReport
	_ = s.fsys.Walk(s.dir, func(path string, info fs.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		hash, ok := storedName(info.Name())
		if !ok {
			return nil // staging file or stray
		}
		rep.Scanned++
		healthy, err := s.scrubFile(path, hash)
		switch {
		case err != nil:
			rep.Errors++
		case !healthy:
			rep.Corrupt++
			rep.BytesReclaimed += info.Size()
			// Forget it in the index too (if this store had it indexed), so
			// the byte accounting stays honest.
			s.drop(info.Name(), true)
		}
		return nil
	})
	return rep
}

// scrubFile verifies the entry or segment at path against the key hash its
// filename claims.
func (s *Store) scrubFile(path, hash string) (healthy bool, err error) {
	if strings.HasSuffix(path, EntryExt) {
		data, err := s.fsys.ReadFile(path)
		key, _, ok := parseEntry(data)
		return ok && hashKey(key) == hash, err
	}
	f, err := s.fsys.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, err
	}
	recs, ok, err := loadIndex(f, info.Size())
	if !ok {
		return false, err
	}
	var last []byte
	for _, r := range recs {
		key, _, ok, err := readRecord(f, r)
		if err != nil || !ok {
			return false, err
		}
		last = key
	}
	return hashKey(last) == hash, nil
}
