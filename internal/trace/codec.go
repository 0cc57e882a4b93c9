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
//	5: a row stores its pcWord plus only the values its pc produces — ea
//	   for a load or store, destVal for a writable Dest, storeVal for a
//	   store — so rows are 4 to 28 bytes (about 10 on average over the
//	   mini-graph binaries) and which fields a row has is read from the
//	   static table. The manifest's chunk table gained each chunk's payload
//	   byte count (rows u32 | bytes u32 | crc u32 | nextPC i64), and the
//	   frame header's rows field became the raw payload's byte count,
//	   which also bounds the inflate buffer. Chunks are capped at 2^27
//	   rows, so a chunk of the widest rows still counts its bytes in a u32.
//	   A resident chunk's offset index (every 64th row) is derived from
//	   its rows and never stored. There is no v4 reader: a v4 manifest or
//	   frame is a version error, a miss, and one re-capture.
//	6: a row keeps only what replay cannot derive. A chunk payload opens
//	   with its first pc, and no row stores one: a row's pc is the previous
//	   row's continuation, which is p+1 unless the row is a control
//	   transfer, whose row leads with a control word (0 not taken, else
//	   taken to p+1+unzigzag(w−1)). The control word, ea, destVal and
//	   storeVal are minimal prefix varints, so rows are 0 to 36 bytes
//	   (about 2 on average over the mini-graph binaries, 11 at v5) and a
//	   chunk's byte count lies in [1, 9 + rows × 36]; chunks are capped at
//	   2^26 rows so that still fits a u32. Residency checks the first pc
//	   against the previous chunk's manifest NextPC and the last row's
//	   continuation against the chunk's own, rejects a truncated or
//	   non-minimal varint, and indexes the offset and pc of every 64th row.
//	   The manifest and frame layouts did not change. There is no v5
//	   reader: a v5 manifest or frame is a version error, a miss, and one
//	   re-capture.
const CodecVersion = 6
