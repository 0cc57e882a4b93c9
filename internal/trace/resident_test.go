package trace

import (
	"context"
	"hash/crc32"
	"testing"
	"unsafe"

	"minigraph/internal/workload"
)

// TestResidentBytesCountsWhatIsHeld: the engine's trace cache budgets by
// ResidentBytes, so it has to be the memory the chunks pin — every retained
// chunk's rows with exactly the loadSlack spare bytes a varint load needs
// past them, and its offset index of one 8-byte entry per indexStride rows,
// not the chunk-sized scratch buffer capture wrote them into — and the rows
// it holds are the trace's SizeBytes.
func TestResidentBytesCountsWhatIsHeld(t *testing.T) {
	wl, _ := workload.ByName("sha")
	const rows = 4096
	tr, err := CaptureWith(context.Background(), wl.Build(workload.InputTrain), nil, rows+rows/2,
		CaptureOptions{ChunkRecords: rows})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != rows+rows/2 || tr.NumChunks() != 2 {
		t.Fatalf("captured %d records in %d chunks, want 1.5 chunks", tr.Len(), tr.NumChunks())
	}
	if unsafe.Sizeof(indexEntry{}) != indexEntryBytes {
		t.Fatalf("an index entry takes %d bytes, heldBytes counts %d", unsafe.Sizeof(indexEntry{}), indexEntryBytes)
	}
	var held, payload int64
	for i, c := range tr.chunks {
		if cap(c.rows) != len(c.rows)+loadSlack || len(c.index) != (int(tr.info[i].Rows)+indexStride-1)/indexStride || cap(c.index) != len(c.index) {
			t.Errorf("chunk %d holds rows %d/%d and index %d/%d (len/cap)", i, len(c.rows), cap(c.rows), len(c.index), cap(c.index))
		}
		held += int64(len(c.rows)+loadSlack) + 8*int64(len(c.index))
		payload += int64(len(c.rows))
		if tr.info[i].Verify(c.rows) != nil {
			t.Errorf("chunk %d no longer matches its manifest entry", i)
		}
		if crc32.ChecksumIEEE(c.rows) != tr.info[i].CRC {
			t.Errorf("chunk %d no longer matches its manifest checksum", i)
		}
	}
	if got := tr.ResidentBytes(); got != held {
		t.Errorf("ResidentBytes = %d, the chunks hold %d", got, held)
	}
	if payload != tr.SizeBytes() {
		t.Errorf("1.5 chunks of records (%d bytes) hold %d bytes of rows", tr.SizeBytes(), payload)
	}
	if payload >= tr.Len()*MaxRecordBytes {
		t.Errorf("%d rows take %d bytes: no row left a value out", tr.Len(), payload)
	}
}
