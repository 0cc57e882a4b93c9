package trace

// CodecVersion is the on-the-wire version of the binary trace encodings
// (the chunk frame and the manifest both carry it; see chunk.go). Any
// change to the record layout or framing must bump it: persisted traces
// written under an older version then read back as decode errors (cache
// misses) instead of replaying garbage.
//
// Version history:
//
//	1: initial 27-byte packed rows.
//	2: rows grew destVal/storeVal u64 pairs (43 bytes) so replay folds the
//	   same retired-state digest as the live stream.
//	3: chunked framing — per-chunk frames (each with its own CRC) and the
//	   manifest naming them, for chunk-granular store persistence and peer
//	   transfer. A single-blob container of those frames also carried this
//	   version until it was removed; manifest and chunk encodings did not
//	   change, so the version did not move.
const CodecVersion = 3
