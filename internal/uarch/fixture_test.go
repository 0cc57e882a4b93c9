package uarch_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/progen"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/sim"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/results.json from this tree's simulations")

// fixtureBenches are the benchmark's config_sweep binaries. mcf is the one
// that matters most to a host-speed change: it spends over 80 % of its
// simulated cycles waiting on DRAM.
var fixtureBenches = []string{"gzip", "mcf", "adpcm.enc", "mpeg2.dec", "reed.dec", "rtr", "sha", "blowfish"}

// binary is one simulated program with its captured dynamic stream, shared
// by every arm (and every test) that replays it.
type binary struct {
	prog      *isa.Program
	templates []*core.Template // nil for an unrewritten program
	tr        *trace.Trace
}

// pipeline builds a fresh machine over a private cursor of b's trace.
func (b *binary) pipeline(cfg uarch.Config) *uarch.Pipeline {
	var mgt *core.MGT
	if b.templates != nil {
		mgt = core.NewMGT(b.templates, sim.ExecParams(cfg))
	}
	return uarch.NewWithSource(cfg, mgt, trace.NewReader(b.tr, b.prog, cfg.MaxRecords))
}

type binaryPair struct {
	once     sync.Once
	base, mg *binary
	err      error
}

var binaries sync.Map // bench name → *binaryPair

// binariesOf prepares bench the way the engine does — profile, extract
// under the default policy into a 512-entry table, nop-fill rewrite — and
// captures both the original and the rewritten binary once per process.
func binariesOf(t testing.TB, bench string) (base, mg *binary) {
	t.Helper()
	v, _ := binaries.LoadOrStore(bench, &binaryPair{})
	bp := v.(*binaryPair)
	bp.once.Do(func() {
		wl, ok := workload.ByName(bench)
		if !ok {
			bp.err = fmt.Errorf("unknown benchmark %q", bench)
			return
		}
		ctx := context.Background()
		p := wl.Build(workload.InputTrain)
		g := program.BuildCFG(p, nil)
		prof, err := emu.ProfileProgram(p, nil, sim.ProfileLimit)
		if err != nil {
			bp.err = err
			return
		}
		rw, err := rewrite.Rewrite(p, core.Extract(g, program.ComputeLiveness(g), prof, core.DefaultPolicy(), 512), false)
		if err != nil {
			bp.err = err
			return
		}
		bp.base = &binary{prog: p}
		bp.mg = &binary{prog: rw.Prog, templates: rw.Templates}
		if bp.base.tr, bp.err = trace.Capture(ctx, p, nil, 0); bp.err != nil {
			return
		}
		// The record stream does not depend on the table's schedules, so any
		// machine's parameters capture it.
		mgt := core.NewMGT(rw.Templates, sim.ExecParams(uarch.MiniGraph(true)))
		bp.mg.tr, bp.err = trace.Capture(ctx, rw.Prog, mgt, 0)
	})
	if bp.err != nil {
		t.Fatalf("%s: %v", bench, bp.err)
	}
	return bp.base, bp.mg
}

// machinePoint is one of the fixture's two memory systems: a short DRAM
// latency, and a long one behind a small register file and a prefetcher —
// where nearly every cycle is a wait.
type machinePoint struct {
	name  string
	apply func(*uarch.Config)
}

var fixturePoints = []machinePoint{
	{"m80", func(c *uarch.Config) { c.MemLatency = 80 }},
	{"m300.r100.delta", func(c *uarch.Config) {
		c.MemLatency, c.PhysRegs, c.Prefetcher = 300, 100, prefetch.DefaultDelta()
	}},
}

type fixtureArm struct {
	name string
	bin  *binary
	cfg  uarch.Config
}

// fixtureArms is 8 binaries × {baseline, mini-graph} × fixturePoints.
func fixtureArms(t testing.TB) []fixtureArm {
	var arms []fixtureArm
	for _, bench := range fixtureBenches {
		base, mg := binariesOf(t, bench)
		for _, kind := range []struct {
			name string
			bin  *binary
			cfg  uarch.Config
		}{{"baseline", base, uarch.Baseline()}, {"minigraph", mg, uarch.MiniGraph(true)}} {
			for _, pt := range fixturePoints {
				cfg := kind.cfg
				pt.apply(&cfg)
				arms = append(arms, fixtureArm{bench + "/" + kind.name + "/" + pt.name, kind.bin, cfg})
			}
		}
	}
	return arms
}

// fixtureResult is a Result as testdata/results.json holds it: every field
// but RetiredDigest, which the shallower field of the same name shadows and
// omits. The digest is a function of the fold, not of the machine, and the
// differential oracle checks it against the emulator of the same tree.
type fixtureResult struct {
	uarch.Result
	RetiredDigest *struct{} `json:",omitempty"`
}

type fixtureEntry struct {
	Arm    string
	Result fixtureResult
}

const fixturePath = "testdata/results.json"

// diffResults names every field, RetiredDigest excepted, in which got and
// want differ.
func diffResults(got, want *uarch.Result) []string {
	var diffs []string
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if name == "RetiredDigest" {
			continue
		}
		if gv, wv := g.Field(i).Interface(), w.Field(i).Interface(); gv != wv {
			diffs = append(diffs, fmt.Sprintf("%s = %v, want %v", name, gv, wv))
		}
	}
	return diffs
}

// checkConservation asserts the relations between a Result's counters that
// crediting skipped cycles in bulk could break.
func checkConservation(t *testing.T, arm string, r *uarch.Result) {
	t.Helper()
	if stalls := r.StallROB + r.StallIQ + r.StallLSQ + r.StallRegs; stalls > r.Cycles {
		t.Errorf("%s: %d dispatch-stall cycles in a run of %d cycles", arm, stalls, r.Cycles)
	}
	if entered := r.FetchedRecords - r.FetchedNops; entered < r.Retired {
		t.Errorf("%s: retired %d records, only %d entered the pipe", arm, r.Retired, entered)
	}
	// Every retiring definition frees the register it displaced. A squash
	// hands registers back through the undo log instead, uncounted, so the
	// two only balance on a run that never squashed.
	if r.Violations == 0 && r.PregAllocs != r.PregFrees {
		t.Errorf("%s: %d physical registers allocated, %d freed, and no squash", arm, r.PregAllocs, r.PregFrees)
	}
	// The halt retires without ever entering the scheduler.
	if r.Issued < r.Retired-1 {
		t.Errorf("%s: retired %d records, issued %d", arm, r.Retired, r.Issued)
	}
}

// TestResultFixture pins the simulated numbers of the timing model: a
// host-speed change to the pipeline (cycle skipping, a cheaper scan, a new
// digest fold) must reproduce every count of every arm in
// testdata/results.json, which was generated before the first such change.
// Regenerate only for an intended change to the simulated machine:
//
//	go test -run TestResultFixture -update ./internal/uarch
func TestResultFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	ctx := context.Background()

	t.Run("fixture", func(t *testing.T) {
		arms := fixtureArms(t)
		got := make([]fixtureEntry, len(arms))
		for i, a := range arms {
			res, err := a.bin.pipeline(a.cfg).Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			checkConservation(t, a.name, res)
			got[i] = fixtureEntry{Arm: a.name, Result: fixtureResult{Result: *res}}
		}
		if *updateFixture {
			data, err := json.MarshalIndent(got, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(fixturePath), 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fixturePath, append(data, '\n'), 0o666); err != nil {
				t.Fatal(err)
			}
			return
		}
		data, err := os.ReadFile(fixturePath)
		if err != nil {
			t.Fatalf("missing fixture (generate with -update): %v", err)
		}
		var want []fixtureEntry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("fixture holds %d arms, the test simulates %d", len(want), len(got))
		}
		for i := range got {
			if got[i].Arm != want[i].Arm {
				t.Fatalf("arm %d is %s, fixture has %s", i, got[i].Arm, want[i].Arm)
			}
			for _, d := range diffResults(&got[i].Result.Result, &want[i].Result.Result) {
				t.Errorf("%s: %s", got[i].Arm, d)
			}
		}
	})

	// The arms every figure shares — the golden reports' baseline and
	// integer-memory machines on the subset binaries, as configured.
	t.Run("golden-arms", func(t *testing.T) {
		for _, bench := range workload.BenchSubset() {
			base, mg := binariesOf(t, bench)
			for _, a := range []fixtureArm{
				{bench + "/baseline", base, uarch.Baseline()},
				{bench + "/minigraph", mg, uarch.MiniGraph(true)},
			} {
				res, err := a.bin.pipeline(a.cfg).Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				checkConservation(t, a.name, res)
			}
		}
	})

	// The differential oracle's -short corpus: generated programs reach the
	// squash and replay paths the benchmarks rarely take.
	t.Run("corpus", func(t *testing.T) {
		eng := sim.New(0)
		for seed := int64(0); seed < 60; seed++ {
			bench, err := progen.RegisterSeed(seed)
			if err != nil {
				t.Fatal(err)
			}
			arms := progen.Matrix(bench, 0)
			jobs := make([]sim.SimJob, len(arms))
			for i := range arms {
				jobs[i] = arms[i].Job
			}
			outs, err := eng.Run(ctx, jobs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for i, out := range outs {
				checkConservation(t, fmt.Sprintf("seed %d %s", seed, arms[i].Name), out.Result)
			}
		}
	})
}
