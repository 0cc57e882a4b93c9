package emu_test

import (
	"math/rand"
	"testing"

	"minigraph/internal/emu"
	"minigraph/internal/isa"
)

// digestStream is a seeded record stream with every kind of architectural
// effect the digest distinguishes: a register write, a store, both (a
// handle with an interior store), and neither (branch, nop, halt).
func digestStream(rng *rand.Rand, n int) []emu.Record {
	recs := make([]emu.Record, n)
	for i := range recs {
		r := &recs[i]
		r.Seq, r.Dest, r.MGID = int64(i), isa.RNone, -1
		kind := rng.Intn(4)
		if kind == 0 || kind == 2 {
			r.Dest, r.DestVal = isa.Reg(rng.Intn(isa.NumRegs)), rng.Uint64()
		}
		if kind == 1 || kind == 2 {
			r.IsStore, r.EA, r.MemSize, r.StoreVal = true, isa.Addr(rng.Uint64()), 1<<rng.Intn(4), rng.Uint64()
		}
		if kind == 3 {
			r.IsCtrl, r.Taken, r.NextPC = true, rng.Intn(2) == 0, isa.PC(rng.Intn(1<<20))
		}
	}
	return recs
}

func hasEffect(r *emu.Record) bool { return r.Dest != isa.RNone || r.IsStore }

func foldAll(d emu.Digest, recs []emu.Record) emu.Digest {
	for i := range recs {
		d = d.Fold(&recs[i])
	}
	return d
}

// TestDigestIsAnOracle: the digest is what lets the differential corpus
// say "the pipeline retired exactly the emulator's effect stream". It only
// can if every way a retire stage goes wrong moves it: a wrong value,
// register, address, width or sequence number, and an effect lost,
// repeated or committed out of order.
func TestDigestIsAnOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	recs := digestStream(rng, 3000)
	// prefix[i] is the digest of recs[:i].
	prefix := make([]emu.Digest, len(recs)+1)
	prefix[0] = emu.NewDigest()
	for i := range recs {
		prefix[i+1] = prefix[i].Fold(&recs[i])
	}
	want := prefix[len(recs)]

	if z := (emu.Record{Dest: isa.RZero}); emu.NewDigest().Fold(&z) == emu.NewDigest() {
		t.Error("the empty-stream digest is a fixed point of folding an all-zero register write")
	}

	// with returns the digest of the stream with mid in place of recs[i:j].
	with := func(i, j int, mid ...emu.Record) emu.Digest {
		return foldAll(foldAll(prefix[i], mid), recs[j:])
	}

	// Every single-bit flip of every folded field, at 64 seeded positions.
	flips := []struct {
		name string
		bits int
		used func(*emu.Record) bool
		flip func(*emu.Record, uint)
	}{
		{"Seq", 64, hasEffect, func(r *emu.Record, b uint) { r.Seq ^= 1 << b }},
		{"Dest", 8, func(r *emu.Record) bool { return r.Dest != isa.RNone }, func(r *emu.Record, b uint) { r.Dest ^= 1 << b }},
		{"DestVal", 64, func(r *emu.Record) bool { return r.Dest != isa.RNone }, func(r *emu.Record, b uint) { r.DestVal ^= 1 << b }},
		{"EA", 64, func(r *emu.Record) bool { return r.IsStore }, func(r *emu.Record, b uint) { r.EA ^= 1 << b }},
		{"MemSize", 8, func(r *emu.Record) bool { return r.IsStore }, func(r *emu.Record, b uint) { r.MemSize ^= 1 << b }},
		{"StoreVal", 64, func(r *emu.Record) bool { return r.IsStore }, func(r *emu.Record, b uint) { r.StoreVal ^= 1 << b }},
	}
	for n := 0; n < 64; n++ {
		i := rng.Intn(len(recs))
		for _, f := range flips {
			if !f.used(&recs[i]) {
				continue
			}
			for b := uint(0); b < uint(f.bits); b++ {
				m := recs[i]
				f.flip(&m, b)
				if with(i, i+1, m) == want {
					t.Errorf("record %d: flipping bit %d of %s left the digest unchanged", i, b, f.name)
				}
			}
		}
	}

	// Every record, dropped, duplicated, and swapped with its successor.
	for i := range recs {
		dropped, doubled := with(i, i+1), with(i, i+1, recs[i], recs[i])
		if !hasEffect(&recs[i]) {
			if dropped != want || doubled != want {
				t.Errorf("record %d has no architectural effect, yet dropping or repeating it moved the digest", i)
			}
			continue
		}
		if dropped == want {
			t.Errorf("record %d: dropping it left the digest unchanged", i)
		}
		if doubled == want {
			t.Errorf("record %d: retiring it twice left the digest unchanged", i)
		}
		if i+1 < len(recs) && hasEffect(&recs[i+1]) && with(i, i+2, recs[i+1], recs[i]) == want {
			t.Errorf("records %d and %d: retiring them in the wrong order left the digest unchanged", i, i+1)
		}
	}
}
