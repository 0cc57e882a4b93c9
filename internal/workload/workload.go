// Package workload provides the benchmark kernels used by the evaluation.
//
// The paper evaluates Alpha binaries of SPECint2000, MediaBench, CommBench
// and MiBench. Those binaries (and the suites' inputs) are not available,
// so this package substitutes hand-written kernels in the repository's ISA
// that implement the real algorithms the suites are built from, organised
// into the same four suites and sized/shaped to reproduce each suite's
// character:
//
//   - SPECint-like: branchy, pointer-heavy, larger static footprints, low
//     baseline IPC (mcf's pointer chasing, gcc's dispatch, gzip's LZ
//     matching, crafty's bitboards, twolf's annealing, parser's scanning);
//   - MediaBench-like: dense straight-line integer arithmetic in long basic
//     blocks (ADPCM, G.721-style filters, GSM-style LPC, DCT+quantise,
//     IDCT+motion compensation, FP geometry for mesa);
//   - CommBench-like: packet-rate processing (Reed-Solomon GF(256),
//     checksum/fragmentation, radix-tree routing, DRR scheduling, packet
//     filtering);
//   - MiBench-like: small embedded kernels (bitcount, SHA-style mixing,
//     CRC-32, Dijkstra, string search, Blowfish-style Feistel rounds, Susan-
//     style thresholding, pixel format conversion).
//
// Every kernel is deterministic, runs to completion (halt) in a bounded
// number of instructions, and stores a result checksum at the data label
// "result" so functional correctness is checkable.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"minigraph/internal/asm"
	"minigraph/internal/isa"
)

// Input selects a benchmark's input data set. The robustness experiment
// (§6.1) profiles on Train and evaluates on Test.
type Input int

// Input sets.
const (
	InputTrain Input = iota
	InputTest
)

func (in Input) String() string {
	if in == InputTrain {
		return "train"
	}
	return "test"
}

// Benchmark is one kernel.
type Benchmark struct {
	Name  string
	Suite string
	// Build assembles the program for the given input set.
	Build func(in Input) *isa.Program
}

// Suite names.
const (
	SPECint    = "SPECint"
	MediaBench = "MediaBench"
	CommBench  = "CommBench"
	MiBench    = "MiBench"
)

var (
	registryMu sync.RWMutex
	registry   []*Benchmark
)

func register(name, suite string, build func(in Input) *isa.Program) {
	registry = append(registry, &Benchmark{Name: name, Suite: suite, Build: build})
}

// Register adds a benchmark at runtime — the built-in kernels register at
// package init, but generated workloads (internal/progen's seeded random
// programs) arrive while the process is already simulating, so this entry
// point is synchronized. Registering a name that already exists is an
// error: a name is a cache identity (sim.PrepareKey embeds it), so two
// different programs must never share one.
func Register(b *Benchmark) error {
	if b == nil || b.Name == "" || b.Build == nil {
		return fmt.Errorf("workload: invalid registration")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, have := range registry {
		if have.Name == b.Name {
			return fmt.Errorf("workload: benchmark %q already registered", b.Name)
		}
	}
	registry = append(registry, b)
	return nil
}

// All returns every benchmark, ordered by suite then name. Suites outside
// the canonical four (runtime-registered workloads) sort last, so the
// paper's experiment enumerations are undisturbed by generated programs.
func All() []*Benchmark {
	registryMu.RLock()
	out := append([]*Benchmark(nil), registry...)
	registryMu.RUnlock()
	order := map[string]int{SPECint: 0, MediaBench: 1, CommBench: 2, MiBench: 3}
	rank := func(suite string) int {
		if r, ok := order[suite]; ok {
			return r
		}
		return len(order)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if rank(out[i].Suite) != rank(out[j].Suite) {
			return rank(out[i].Suite) < rank(out[j].Suite)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BySuite returns the benchmarks of one suite.
func BySuite(suite string) []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark.
func ByName(name string) (*Benchmark, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// Suites lists the suite names in canonical order.
func Suites() []string { return []string{SPECint, MediaBench, CommBench, MiBench} }

// BenchSubset returns one representative benchmark per suite. The pipeline
// benchmarks and the golden fixtures both measure this subset, so their
// numbers stay comparable with each other and across commits.
func BenchSubset() []string { return []string{"gzip", "adpcm.enc", "reed.dec", "sha"} }

// Names returns every registered benchmark name in All() order, for
// "unknown benchmark" error messages and discovery.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// ---- assembly generation helpers ----

// dataBuilder accumulates a .data section.
type dataBuilder struct {
	b strings.Builder
}

func (d *dataBuilder) words(label string, vals []int64) {
	fmt.Fprintf(&d.b, "%s:\n", label)
	for i := 0; i < len(vals); i += 8 {
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		parts := make([]string, 0, 8)
		for _, v := range vals[i:end] {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
		fmt.Fprintf(&d.b, "  .word %s\n", strings.Join(parts, ", "))
	}
}

func (d *dataBuilder) longs(label string, vals []int32) {
	fmt.Fprintf(&d.b, "%s:\n", label)
	for i := 0; i < len(vals); i += 8 {
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		parts := make([]string, 0, 8)
		for _, v := range vals[i:end] {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
		fmt.Fprintf(&d.b, "  .long %s\n", strings.Join(parts, ", "))
	}
}

func (d *dataBuilder) bytesArr(label string, vals []byte) {
	fmt.Fprintf(&d.b, "%s:\n", label)
	for i := 0; i < len(vals); i += 16 {
		end := i + 16
		if end > len(vals) {
			end = len(vals)
		}
		parts := make([]string, 0, 16)
		for _, v := range vals[i:end] {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
		fmt.Fprintf(&d.b, "  .byte %s\n", strings.Join(parts, ", "))
	}
}

func (d *dataBuilder) space(label string, n int) {
	fmt.Fprintf(&d.b, "%s: .space %d\n", label, n)
}

func (d *dataBuilder) String() string { return d.b.String() }

// rng returns a deterministic source whose stream differs per input set.
func rng(name string, in Input) *rand.Rand {
	seed := int64(1)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	if in == InputTest {
		seed = seed*2654435761 + 17
	}
	return rand.New(rand.NewSource(seed))
}

// build assembles a kernel from a data section and a text section.
func build(name string, data, text string) *isa.Program {
	src := "        .data\n" + data + "        .text\n" + text
	return asm.MustAssemble(name, src)
}
