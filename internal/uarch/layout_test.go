package uarch_test

import (
	"context"
	"fmt"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/sim"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
)

// frameStore holds a trace's chunks as encoded frames, the way a store or
// a peer does: the ChunkSink a capture spills through and the ChunkSource
// replay faults from.
type frameStore map[int64][]byte

func (f frameStore) SealChunk(index, rows int64, data []byte, crc uint32) error {
	f[index] = trace.EncodeChunk(index, data, index%2 == 1)
	return nil
}

func (f frameStore) FetchChunk(index int64) ([]byte, error) {
	frame, ok := f[index]
	if !ok {
		return nil, fmt.Errorf("no chunk %d", index)
	}
	_, raw, err := trace.DecodeChunk(frame)
	return raw, err
}

// TestTraceLayoutIsInvisible: row format, chunk geometry and chunk window
// are storage layout, never semantics. One binary replayed from fully
// spilled traces of three chunk sizes, through three window bounds, by a
// solo reader, by a gang's cursors, and by a reader over the trace as a
// cold process adopts it (encoded manifest → FromManifest), produces the
// Result the live emulator stream produces — every count of it. The two
// arms are the fixture's longest-waiting one (mcf behind a 300-cycle DRAM)
// and one whose memory-ordering violations squash, so Rewind lands on
// both sides of chunk boundaries that are 16 rows apart.
func TestTraceLayoutIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	ctx := context.Background()
	_, mcf := binariesOf(t, "mcf")
	mcfCfg := uarch.MiniGraph(true)
	fixturePoints[1].apply(&mcfCfg)
	mcfCfg.MaxRecords = 80_000 // into a second 65536-row chunk, and no further: 36 replays follow
	for _, arm := range []struct {
		name       string
		bin        *binary
		cfg        uarch.Config
		violations bool
	}{
		{"mcf/minigraph/" + fixturePoints[1].name, mcf, mcfCfg, false},
		{"viol/baseline", &binary{prog: asm.MustAssemble("viol", violSrc)}, uarch.Baseline(), true},
	} {
		mgt := func() *core.MGT {
			if arm.bin.templates == nil {
				return nil
			}
			return core.NewMGT(arm.bin.templates, sim.ExecParams(arm.cfg))
		}
		want, err := uarch.New(arm.cfg, arm.bin.prog, mgt()).Run(ctx)
		if err != nil {
			t.Fatalf("%s: live stream: %v", arm.name, err)
		}
		if arm.violations && want.Violations == 0 {
			t.Fatalf("%s: no memory-ordering violation, so nothing rewinds", arm.name)
		}
		check := func(layout string, got *uarch.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", arm.name, layout, err)
			}
			for _, d := range diffResults(got, want) {
				t.Errorf("%s, %s: %s", arm.name, layout, d)
			}
			if got.RetiredDigest != want.RetiredDigest {
				t.Errorf("%s, %s: digest %#x, want %#x", arm.name, layout, got.RetiredDigest, want.RetiredDigest)
			}
		}
		for _, records := range []int64{16, 4096, 65536} {
			frames := make(frameStore)
			tr, err := trace.CaptureWith(ctx, arm.bin.prog, mgt(), arm.cfg.MaxRecords, trace.CaptureOptions{ChunkRecords: records, Sink: frames})
			if err != nil {
				t.Fatal(err)
			}
			tr.BindSource(frames)
			m, err := trace.DecodeManifest(trace.EncodeManifest(tr.Manifest()))
			if err != nil {
				t.Fatal(err)
			}
			adopted, err := trace.FromManifest(m, frames)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Spilled() || !adopted.Spilled() {
				t.Fatal("the trace is resident: no window would bound anything")
			}
			for _, window := range []int{1, 2, 0} {
				layout := fmt.Sprintf("%d-row chunks, window %d", records, window)
				solo := func(tr *trace.Trace) (*uarch.Result, error) {
					return uarch.NewWithSource(arm.cfg, mgt(), trace.NewReaderWindowed(tr, arm.bin.prog, arm.cfg.MaxRecords, window)).Run(ctx)
				}
				got, err := solo(tr)
				check(layout+", solo", got, err)
				got, err = solo(adopted)
				check(layout+", adopted", got, err)

				g := trace.NewGangReaderWindowed(tr, arm.bin.prog, 0, window)
				pipes := []*uarch.Pipeline{
					uarch.NewWithSource(arm.cfg, mgt(), g.Cursor(arm.cfg.MaxRecords)),
					uarch.NewWithSource(arm.cfg, mgt(), g.Cursor(arm.cfg.MaxRecords)),
				}
				for running := len(pipes); running > 0; {
					for i, p := range pipes {
						if p == nil {
							continue
						}
						// Unequal quanta, so the cursors drift apart and
						// cross chunk boundaries of the shared window
						// out of step.
						done, err := p.RunCycles(ctx, int64(256<<i))
						if err == nil && done {
							var got *uarch.Result
							got, err = p.Finish()
							check(fmt.Sprintf("%s, gang cursor %d", layout, i), got, err)
							pipes[i] = nil
							running--
						}
						if err != nil {
							t.Fatalf("%s, %s, gang cursor %d: %v", arm.name, layout, i, err)
						}
					}
				}
			}
		}
	}
}
