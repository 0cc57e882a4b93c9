package store

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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

	mu  sync.Mutex
	rng *rand.Rand

	tornWrites atomic.Int64
	bitFlips   atomic.Int64
	truncates  atomic.Int64
	writeErrs  atomic.Int64
	readErrs   atomic.Int64
	delays     atomic.Int64
}

// NewFaultInjector builds an injector from cfg, seeded by cfg.Seed.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counters snapshots the per-class fault counts.
func (f *FaultInjector) Counters() FaultCounters {
	return FaultCounters{
		TornWrites: f.tornWrites.Load(),
		BitFlips:   f.bitFlips.Load(),
		Truncates:  f.truncates.Load(),
		WriteErrs:  f.writeErrs.Load(),
		ReadErrs:   f.readErrs.Load(),
		Delays:     f.delays.Load(),
	}
}

// roll draws a uniform [0,1) variate under the injector's lock.
func (f *FaultInjector) roll() float64 {
	f.mu.Lock()
	v := f.rng.Float64()
	f.mu.Unlock()
	return v
}

// intn draws a uniform [0,n) variate under the injector's lock.
func (f *FaultInjector) intn(n int) int {
	f.mu.Lock()
	v := f.rng.Intn(n)
	f.mu.Unlock()
	return v
}

func (f *FaultInjector) delay() {
	if f.cfg.DelayP > 0 && f.roll() < f.cfg.DelayP {
		f.delays.Add(1)
		time.Sleep(f.cfg.Delay)
	}
}

func (f *FaultInjector) failWrite() bool {
	if f.cfg.WriteErr > 0 && f.roll() < f.cfg.WriteErr {
		f.writeErrs.Add(1)
		return true
	}
	return false
}

func (f *FaultInjector) failRead() bool {
	if f.cfg.ReadErr > 0 && f.roll() < f.cfg.ReadErr {
		f.readErrs.Add(1)
		return true
	}
	return false
}

// corrupt applies at most one corruption class to the bytes about to be
// published, returning a fresh slice when it fires (the caller's buffer is
// never aliased).
func (f *FaultInjector) corrupt(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	switch {
	case f.cfg.TornWrite > 0 && f.roll() < f.cfg.TornWrite:
		f.tornWrites.Add(1)
		// Keep a strict prefix: at least one byte short, possibly empty.
		n := f.intn(len(data))
		return append([]byte(nil), data[:n]...)
	case f.cfg.BitFlip > 0 && f.roll() < f.cfg.BitFlip:
		f.bitFlips.Add(1)
		out := append([]byte(nil), data...)
		bit := f.intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	case f.cfg.Truncate > 0 && f.roll() < f.cfg.Truncate:
		f.truncates.Add(1)
		n := f.intn(len(data))
		return append([]byte(nil), data[:n]...)
	}
	return data
}
