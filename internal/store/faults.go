package store

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// errInjectedWrite marks a Put failure produced by the fault injector, so
// tests can tell injected faults from real ones.
var errInjectedWrite = errors.New("injected write fault")

// IsInjected reports whether err was produced by a FaultInjector.
func IsInjected(err error) bool { return errors.Is(err, errInjectedWrite) }

// FaultConfig sets the per-operation probabilities of each fault class.
// All probabilities are in [0, 1]; zero disables that class.
type FaultConfig struct {
	// TornWrite publishes only a prefix of the entry's bytes, as if the
	// medium lost the tail of a write. The resulting file fails the
	// envelope's length check and is deleted on the next read.
	TornWrite float64
	// BitFlip flips one random bit of the published bytes — the classic
	// silent media corruption. If the flip lands inside the payload, only
	// the envelope checksum catches it.
	BitFlip float64
	// Truncate drops a random-length tail of the published bytes.
	Truncate float64
	// WriteErr fails the Put outright with an injected error; nothing is
	// written.
	WriteErr float64
	// ReadErr fails a Get as if ReadFile returned a transient error: the
	// call misses but the entry stays on disk and indexed.
	ReadErr float64
	// DelayP is the probability of sleeping Delay before an operation.
	DelayP float64
	// Delay is the injected latency (only meaningful with DelayP > 0).
	Delay time.Duration
	// Seed makes the fault sequence reproducible. The same seed against the
	// same operation sequence injects the same faults.
	Seed int64
}

// FaultCounters is a snapshot of how many faults of each class fired.
type FaultCounters struct {
	TornWrites int64 `json:"torn_writes"`
	BitFlips   int64 `json:"bit_flips"`
	Truncates  int64 `json:"truncates"`
	WriteErrs  int64 `json:"write_errs"`
	ReadErrs   int64 `json:"read_errs"`
	Delays     int64 `json:"delays"`
}

// Total sums all fault classes.
func (c FaultCounters) Total() int64 {
	return c.TornWrites + c.BitFlips + c.Truncates + c.WriteErrs + c.ReadErrs + c.Delays
}

// FaultInjector injects seeded, counted disk faults into a Store. It exists
// for tests: the recovery invariant is that any injected fault may cost
// recomputation (misses, retried puts) but can never surface a corrupt
// value or change a computed result. Safe for concurrent use.
type FaultInjector struct {
	cfg FaultConfig

	mu  sync.Mutex // guards rng and n
	rng *rand.Rand
	n   FaultCounters
}

// NewFaultInjector builds an injector from cfg, seeded by cfg.Seed.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counters snapshots the per-class fault counts.
func (f *FaultInjector) Counters() FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// fire reports whether a fault of probability p strikes now, counting it
// in n (a field of f.n) if so.
func (f *FaultInjector) fire(p float64, n *int64) bool {
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

// intn draws a uniform [0,n) variate under the injector's lock.
func (f *FaultInjector) intn(n int) int {
	f.mu.Lock()
	v := f.rng.Intn(n)
	f.mu.Unlock()
	return v
}

func (f *FaultInjector) delay() {
	if f.fire(f.cfg.DelayP, &f.n.Delays) {
		time.Sleep(f.cfg.Delay)
	}
}

// read is the fault prologue of every read, safe on a nil injector: maybe a
// delay, then maybe a transient failure (true), after which the caller
// misses but leaves what it was reading on disk and indexed.
func (f *FaultInjector) read() (failed bool) {
	if f == nil {
		return false
	}
	f.delay()
	return f.fire(f.cfg.ReadErr, &f.n.ReadErrs)
}

// write is the fault prologue of every write, safe on a nil injector: maybe
// a delay, then either an injected error (nothing must be written) or the
// bytes to write in data's place — data itself, or a fresh slice holding
// at most one corruption of it (the caller's buffer is never aliased) that
// the envelope's checksum or length equation must catch on the next read.
func (f *FaultInjector) write(data []byte) ([]byte, error) {
	if f == nil || len(data) == 0 {
		return data, nil
	}
	f.delay()
	switch {
	case f.fire(f.cfg.WriteErr, &f.n.WriteErrs):
		return nil, errInjectedWrite
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
