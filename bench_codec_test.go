package minigraph_test

import (
	"context"
	"testing"

	"minigraph"
	"minigraph/internal/sim"
	"minigraph/internal/workload"
)

// BenchmarkOutcomeCodec times what a warm store hit costs past the read:
// decoding the stored outcomes of the four subset mini-graph arms (one
// arm per binary, default machine). The arms are simulated once outside
// the clock. Run with
//
//	go test -run xxx -bench BenchmarkOutcomeCodec -benchmem .
//
// and read bytes/outcome with ns/op; bench/'s store_warm workload is the
// end-to-end measurement.
func BenchmarkOutcomeCodec(b *testing.B) {
	var jobs []minigraph.SimJob
	for _, name := range workload.BenchSubset() {
		jobs = append(jobs, minigraph.SimJob{
			Prepare: minigraph.PrepareKey{Bench: name, Input: minigraph.InputTrain},
			Policy:  minigraph.DefaultPolicy(),
			Entries: 512,
			Config:  minigraph.MiniGraphConfig(true),
		})
	}
	outs, err := minigraph.NewEngine(0).Run(context.Background(), jobs)
	if err != nil {
		b.Fatal(err)
	}
	encoded := make([][]byte, len(outs))
	var total int
	for i, out := range outs {
		if encoded[i], err = sim.EncodeOutcome(out); err != nil {
			b.Fatal(err)
		}
		total += len(encoded[i])
	}
	b.ReportAllocs()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range encoded {
			if _, err := sim.DecodeOutcome(data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(total)/float64(len(encoded)), "bytes/outcome")
}
