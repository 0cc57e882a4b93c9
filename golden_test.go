// Golden-fixture regression tests: every experiment's structured Report
// (<id>.json) and its text tables as mgbench -exp prints them (<id>.txt),
// regenerated on the small benchSubset, are pinned byte-for-byte under
// testdata/golden/. Any behavioral drift in extraction, rewriting, or the
// timing pipeline now fails `go test ./...` instead of silently changing
// figures.
//
// After an intentional change, regenerate from the module root with
//
//	go test -run TestGoldenReports -update .
//
// and review the fixture diff like any other code change.
package minigraph_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"minigraph/internal/experiments"
	"minigraph/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden fixtures from current output")

// cheapExperiments need no timing simulation, so they run even in -short
// mode; the rest are skipped there like the other simulation tests.
var cheapExperiments = map[string]bool{
	"config": true, "fig5": true, "fig5dom": true, "robust": true,
}

func TestGoldenReports(t *testing.T) {
	// One shared engine across all experiments, exactly like cmd/mgbench:
	// cross-figure preparations and baselines run once, and the fixtures
	// double as a regression test for that sharing.
	o := subsetOpts()
	o.Engine = sim.New(0)
	for _, id := range experiments.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !cheapExperiments[id] {
				t.Skip("timing simulations in -short mode")
			}
			a, err := experiments.Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", id+".json"), append(got, '\n'))
			checkGolden(t, filepath.Join("testdata", "golden", id+".txt"), []byte(a.String()))
		})
	}
}

// checkGolden compares got with the fixture at path, or rewrites the
// fixture under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test -run TestGoldenReports -update .` from the module root): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (%d vs %d bytes); if intentional, regenerate with -update and review the diff",
			path, len(got), len(want))
		t.Logf("first divergence near byte %d", firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
