package emu

import "minigraph/internal/isa"

// Digest parameters: where the empty stream starts, and the odd multiplier
// of the per-word mix (2^64 divided by the golden ratio).
const (
	digestOffset uint64 = 14695981039346656037
	digestMul    uint64 = 0x9e3779b97f4a7c15
)

// Digest is an order-sensitive fold over the architectural effects of an
// instruction stream: every register write (dest register + value) and
// every store (address + width + value), tagged and sequence-numbered.
// The functional emulator folds each record as it executes; the pipeline
// folds the same records at retire. Equal digests prove the pipeline
// retired exactly the architecturally correct effect stream, exactly once,
// in order — the paper's transparency claim, checkable per run.
//
// The zero Digest is not valid; start from NewDigest.
type Digest uint64

// NewDigest returns the empty-stream digest.
func NewDigest() Digest { return Digest(digestOffset) }

// foldWord mixes one 64-bit word into the state: xor it in, multiply by an
// odd constant, fold the high half down onto the low. Each step is a
// bijection of the state for a given word and of the word for a given
// state, so two streams that differ in one word never collide, and the
// multiply-then-fold makes the result depend on the order words arrive in.
// One multiply per word: the fold runs on every retired record of every
// arm.
func (d Digest) foldWord(v uint64) Digest {
	h := (uint64(d) ^ v) * digestMul
	return Digest(h ^ h>>32)
}

// Fold accumulates rec's architectural effects. Records with neither a
// register output nor a store (branches, nops, halt) leave the digest
// unchanged, so timing-only differences can never perturb it.
func (d Digest) Fold(rec *Record) Digest {
	if rec.Dest != isa.RNone {
		d = d.foldWord(1).foldWord(uint64(rec.Seq)).foldWord(uint64(rec.Dest)).foldWord(rec.DestVal)
	}
	if rec.IsStore {
		d = d.foldWord(2).foldWord(uint64(rec.Seq)).foldWord(uint64(rec.EA)).foldWord(uint64(rec.MemSize)).foldWord(rec.StoreVal)
	}
	return d
}
