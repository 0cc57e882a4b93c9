package store

// The fault tests import storetest, which imports this package, so they are
// in package store_test; these are the internal test helpers they share.
var (
	SegmentRecords = testSegment
	PublishSegment = publish
	ReadSegment    = readAll
	StagingFiles   = staging
)

// KV returns a test segment record's key and value, in Append's order.
func (r segRec) KV() (key, val []byte) { return r.key, r.val }

// EntryPath is the file the entry under key is stored in.
func (s *Store) EntryPath(key []byte) string { return s.pathFor(hashKey(key) + EntryExt) }

// SegmentPath is the file the segment published under seg is stored in.
func (s *Store) SegmentPath(seg string) string { return segPath(s, seg) }
