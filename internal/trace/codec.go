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
//	4: a row stores only what the program text does not. Rows shrank from
//	   43 bytes to the 28 that are dynamic (pc with Taken in bit 31, ea,
//	   destVal, storeVal); op, sources, dest, memSize, the static flags
//	   and mgid moved to a per-pc static table in the manifest, under its
//	   CRC (which now covers everything after the header); nextPC became
//	   the next row's pc, with one full-width i64 NextPC per chunk in the
//	   manifest's chunk table — which also ends the truncation of an
//	   out-of-program NextPC to 32 bits. The frame header did not change
//	   but the rows inside it did, and a v3 manifest has no static table
//	   to decode them with, so both re-read as version errors: a miss and
//	   one re-capture, never a v3 row read as a v4 one.
const CodecVersion = 4
