package workload

import (
	"hash/crc32"
	"math/bits"
	"sort"
	"testing"

	"minigraph/internal/emu"
	"minigraph/internal/isa"
)

// result runs p to halt on the emulator and returns the 8-byte word its
// kernel stores at the "result" label.
func result(t *testing.T, p *isa.Program) uint64 {
	t.Helper()
	m := emu.NewMachine(p, nil)
	halted, err := m.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Fatalf("%s did not halt", p.Name)
	}
	return m.Mem.Read(p.DataSymbols["result"], 8)
}

// The tests below check a kernel's answer against Go's own computation of
// it over the same input, regenerated from rng exactly as the kernel's
// builder draws it. Every other oracle in the repository is relative to
// the emulator; these are not.

// TestCRC32GroundTruth: the crc32 kernel computes the IEEE CRC-32 of its
// input bytes.
func TestCRC32GroundTruth(t *testing.T) {
	for _, in := range []Input{InputTrain, InputTest} {
		r := rng("crc32", in)
		data := make([]byte, 24*1024)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		want := uint64(crc32.ChecksumIEEE(data))
		if got := result(t, buildCRC32(in)); got != want {
			t.Errorf("%s: kernel result %#x, want crc32 %#x", in, got, want)
		}
	}
}

// TestQsortGroundTruth: the qsort kernel sorts its input, then folds the
// sorted array as h = rotl(h, 1) ^ v.
func TestQsortGroundTruth(t *testing.T) {
	for _, in := range []Input{InputTrain, InputTest} {
		r := rng("qsort", in)
		vals := make([]int64, 2048)
		for i := range vals {
			vals[i] = int64(r.Intn(1 << 20))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var want uint64
		for _, v := range vals {
			want = bits.RotateLeft64(want, 1) ^ uint64(v)
		}
		if got := result(t, buildQsort(in)); got != want {
			t.Errorf("%s: kernel result %#x, want sorted fold %#x", in, got, want)
		}
	}
}
