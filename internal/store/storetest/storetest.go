// Package storetest is test support for package store: a file system that
// injects seeded, counted disk faults into what a store reads and writes.
// The recovery invariant it exists to check is that a fault may cost
// recomputation (misses, retried puts) but never surfaces a corrupt value
// or changes a computed result.
package storetest

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"minigraph/internal/store"
)

// errInjected marks a failure produced by a FaultFS, so tests can tell
// injected faults from real ones.
var errInjected = errors.New("storetest: injected fault")

// IsInjected reports whether err was produced by a FaultFS.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

// Config sets the per-operation probabilities of each fault class. All
// probabilities are in [0, 1]; zero disables that class.
type Config struct {
	// TornWrite lands only a prefix of a write, as if the medium lost its
	// tail. The write still reports success.
	TornWrite float64
	// BitFlip flips one random bit of a write — the classic silent media
	// corruption. If the flip lands inside a payload, only the envelope
	// checksum catches it.
	BitFlip float64
	// Truncate drops a random-length tail of a write.
	Truncate float64
	// WriteErr fails a write outright with an injected error; nothing is
	// written.
	WriteErr float64
	// ReadErr fails a read of file contents (ReadFile, or ReadAt of an open
	// file) as a transient error would: the call misses, but what it read
	// stays on disk and indexed.
	ReadErr float64
	// DelayP is the probability of sleeping Delay before a read or write.
	DelayP float64
	// Delay is the injected latency (only meaningful with DelayP > 0).
	Delay time.Duration
	// Seed makes the fault sequence reproducible. The same seed against the
	// same operation sequence injects the same faults.
	Seed int64
}

// Counters is a snapshot of how many faults of each class fired.
type Counters struct {
	TornWrites int64
	BitFlips   int64
	Truncates  int64
	WriteErrs  int64
	ReadErrs   int64
	Delays     int64
}

// Total sums all fault classes.
func (c Counters) Total() int64 {
	return c.TornWrites + c.BitFlips + c.Truncates + c.WriteErrs + c.ReadErrs + c.Delays
}

// FaultFS is the OS file system with faults injected into file contents:
// reads through ReadFile and ReadAt, writes through WriteAt. The directory
// walk, opens, renames, removes and mtime stamps pass through, so a store
// opened on it still indexes what is on disk. Safe for concurrent use.
type FaultFS struct {
	store.OS
	cfg Config

	mu  sync.Mutex // guards rng and n
	rng *rand.Rand
	n   Counters
}

// New builds a FaultFS from cfg, seeded by cfg.Seed.
func New(cfg Config) *FaultFS {
	return &FaultFS{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counters snapshots the per-class fault counts.
func (f *FaultFS) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *FaultFS) CreateTemp(dir, pattern string) (store.File, error) {
	return f.wrap(f.OS.CreateTemp(dir, pattern))
}

func (f *FaultFS) Open(name string) (store.File, error) { return f.wrap(f.OS.Open(name)) }

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.readFails() {
		return nil, errInjected
	}
	return f.OS.ReadFile(name)
}

func (f *FaultFS) wrap(file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

// faultFile is an open entry or segment file of a FaultFS.
type faultFile struct {
	store.File
	fs *FaultFS
}

func (f faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.readFails() {
		return 0, errInjected
	}
	return f.File.ReadAt(p, off)
}

// WriteAt writes p, or at most one corruption of it in a fresh slice (the
// caller's buffer is never aliased), and reports success either way, as the
// medium would: the envelope's checksum or length equation must catch it on
// the next read. A torn or truncated record of a segment thus leaves a hole,
// not a shifted tail.
func (f faultFile) WriteAt(p []byte, off int64) (int, error) {
	out, err := f.fs.write(p)
	if err != nil {
		return 0, err
	}
	if _, err := f.File.WriteAt(out, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// fire reports whether a fault of probability p strikes now, counting it
// in n (a field of f.n) if so.
func (f *FaultFS) fire(p float64, n *int64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() >= p {
		return false
	}
	*n++
	return true
}

// intn draws a uniform [0,n) variate under the lock.
func (f *FaultFS) intn(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

func (f *FaultFS) delay() {
	if f.fire(f.cfg.DelayP, &f.n.Delays) {
		time.Sleep(f.cfg.Delay)
	}
}

// readFails is the fault prologue of every read: maybe a delay, then maybe
// a transient failure.
func (f *FaultFS) readFails() bool {
	f.delay()
	return f.fire(f.cfg.ReadErr, &f.n.ReadErrs)
}

// write is the fault prologue of every write: maybe a delay, then either an
// injected error (nothing must be written) or the bytes to write in data's
// place.
func (f *FaultFS) write(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return data, nil
	}
	f.delay()
	switch {
	case f.fire(f.cfg.WriteErr, &f.n.WriteErrs):
		return nil, errInjected
	case f.fire(f.cfg.TornWrite, &f.n.TornWrites), f.fire(f.cfg.Truncate, &f.n.Truncates):
		// Keep a strict prefix: at least one byte short, possibly empty.
		return append([]byte(nil), data[:f.intn(len(data))]...), nil
	case f.fire(f.cfg.BitFlip, &f.n.BitFlips):
		out := append([]byte(nil), data...)
		bit := f.intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	}
	return data, nil
}
