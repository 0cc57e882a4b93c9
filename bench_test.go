// Benchmarks that regenerate the paper's evaluation artifacts, one per
// figure/table (the experiment index is in the internal/experiments
// package documentation). Each benchmark runs the corresponding experiment
// on a per-suite representative subset so `go test -bench .` stays
// tractable; cmd/mgbench regenerates the full figures over all benchmarks.
//
// Reported custom metrics carry the figure's headline numbers:
// speedup-gmean, coverage-pct, etc.
package minigraph_test

import (
	"strings"
	"testing"

	"minigraph"
	"minigraph/internal/experiments"
	"minigraph/internal/stats"
	"minigraph/internal/workload"
)

// benchSubset holds one representative per suite (kept small so a full
// -bench=. run completes in minutes). The list itself lives in the
// workload package so the golden fixtures use the same subset.
// TestBenchSubsetValid fails fast — listing the registered
// benchmark names — if an entry goes stale.
var benchSubset = workload.BenchSubset()

func subsetOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Benchmarks = benchSubset
	return o
}

// TestBenchSubsetValid pins benchSubset to the workload registry so a
// renamed benchmark breaks this test (with the valid names in the error)
// instead of every benchmark and golden fixture after it.
func TestBenchSubsetValid(t *testing.T) {
	for _, name := range benchSubset {
		if _, ok := workload.ByName(name); !ok {
			t.Errorf("benchSubset entry %q is not a registered benchmark; known benchmarks: %s",
				name, strings.Join(workload.Names(), " "))
		}
	}
}

// BenchmarkTableMachineConfig regenerates the §6 machine-configuration
// description.
func BenchmarkTableMachineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.ConfigTable().String()
	}
}

// BenchmarkFig5Coverage regenerates Figure 5 (top/middle): coverage vs MGT
// entries and mini-graph size.
func BenchmarkFig5Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, cells, err := experiments.Fig5(subsetOpts())
		if err != nil {
			b.Fatal(err)
		}
		var intCov, memCov []float64
		for _, c := range cells {
			if c.Entries == 512 && c.MaxSize == 4 {
				if c.IntMem {
					memCov = append(memCov, c.Coverage)
				} else {
					intCov = append(intCov, c.Coverage)
				}
			}
		}
		b.ReportMetric(100*stats.Mean(intCov), "int-cov-%")
		b.ReportMetric(100*stats.Mean(memCov), "intmem-cov-%")
	}
}

// BenchmarkFig5DomainCoverage regenerates Figure 5 (bottom).
func BenchmarkFig5DomainCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Domain(experiments.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness regenerates the §6.1 cross-input robustness result.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(subsetOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Performance regenerates Figure 6: int / int-mem mini-graph
// speedups with plain and collapsing ALU pipelines.
func BenchmarkFig6Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig6(subsetOpts())
		if err != nil {
			b.Fatal(err)
		}
		var ints, mems []float64
		for _, r := range rows {
			ints = append(ints, r.Int)
			mems = append(mems, r.IntMem)
		}
		b.ReportMetric(stats.GeoMean(ints), "int-speedup")
		b.ReportMetric(stats.GeoMean(mems), "intmem-speedup")
	}
}

// BenchmarkFig7Serialization regenerates Figure 7: serialization/replay
// policy isolation.
func BenchmarkFig7Serialization(b *testing.B) {
	o := subsetOpts()
	o.Benchmarks = []string{"adpcm.enc", "sha"}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyBest regenerates the §6.2 best-per-benchmark-policy rows.
func BenchmarkPolicyBest(b *testing.B) {
	o := subsetOpts()
	o.Benchmarks = []string{"adpcm.enc", "sha"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyBest(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkICacheCompression regenerates the §6.2 compression experiment.
func BenchmarkICacheCompression(b *testing.B) {
	o := subsetOpts()
	o.Benchmarks = []string{"gzip", "sha"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ICache(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Registers regenerates Figure 8 (top): register-file
// reduction.
func BenchmarkFig8Registers(b *testing.B) {
	o := subsetOpts()
	o.Benchmarks = []string{"adpcm.enc", "sha"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Regs(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Bandwidth regenerates Figure 8 (bottom): width and scheduler
// reduction.
func BenchmarkFig8Bandwidth(b *testing.B) {
	o := subsetOpts()
	o.Benchmarks = []string{"adpcm.enc", "sha"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Bandwidth(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraction measures the extraction toolchain itself (enumerate +
// select over a profiled binary).
func BenchmarkExtraction(b *testing.B) {
	wl, _ := workload.ByName("jpeg.comp")
	prog := wl.Build(workload.InputTrain)
	prof, err := minigraph.ProfileOf(prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rw.Selection.Coverage(), "coverage-%")
	}
}

// BenchmarkSimulatorBaseline measures timing-simulator throughput.
func BenchmarkSimulatorBaseline(b *testing.B) {
	wl, _ := workload.ByName("sha")
	prog := wl.Build(workload.InputTrain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := minigraph.Simulate(minigraph.BaselineConfig(), prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Retired)/float64(b.Elapsed().Seconds())/1e6*float64(i+1)/float64(i+1), "Minst/s-last")
		b.ReportMetric(res.IPC(), "IPC")
	}
}

// BenchmarkEmulator measures functional-emulator throughput.
func BenchmarkEmulator(b *testing.B) {
	wl, _ := workload.ByName("sha")
	prog := wl.Build(workload.InputTrain)
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		_, n, err := minigraph.Run(prog, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
