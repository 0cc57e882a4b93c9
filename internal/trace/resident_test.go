package trace

import (
	"context"
	"hash/crc32"
	"testing"

	"minigraph/internal/workload"
)

// TestResidentBytesCountsWhatIsHeld: the engine's trace cache budgets by
// ResidentBytes, so it has to be the memory the chunks pin — and the tail
// chunk of a capture, opened at full chunk capacity and half filled, must
// not pin the half it never used.
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
	var held int64
	for i, c := range tr.chunks {
		held += int64(cap(c))
		if crc32.ChecksumIEEE(c) != tr.crcs[i] {
			t.Errorf("chunk %d no longer matches its manifest checksum", i)
		}
	}
	if got := tr.ResidentBytes(); got != held {
		t.Errorf("ResidentBytes = %d, the chunks hold %d", got, held)
	}
	if held != tr.SizeBytes() {
		t.Errorf("1.5 chunks of records (%d bytes) hold %d bytes", tr.SizeBytes(), held)
	}
}
