// Command mgdiff runs the differential correctness oracle: seeded random
// programs (internal/progen) are executed by the functional emulator and by
// the timing pipeline under the full configuration matrix — {baseline,
// minigraph} × {hybrid, tage} × {none, delta} — and under every record
// delivery mode (live; replay of a resident trace; replay of chunks spilled
// to a scratch store, removed on exit). A seed passes when every
// arm retires the architecturally identical state (register-write/store
// digest and retired count), all modes produce byte-identical encoded
// outcomes, and the rewritten binary's final memory matches the original's.
//
// Usage:
//
//	mgdiff -seed 681               # reproduce one seed
//	mgdiff -seeds 1000 [-start 0]  # sweep a seed range
//	mgdiff -seeds 500 -workers 8 -max-records 200000
//
// On divergence, mgdiff prints the failing seed/arm/mode and exits 1; the
// seed alone reproduces the program exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"

	"minigraph/internal/progen"
)

func main() { os.Exit(run()) }

// run is main behind an exit code, so that every path runs its defers.
func run() int {
	seed := flag.Int64("seed", -1, "check a single seed (reproduce a reported divergence)")
	seeds := flag.Int64("seeds", 0, "sweep this many consecutive seeds")
	start := flag.Int64("start", 0, "first seed of the sweep")
	workers := flag.Int("workers", 0, "concurrent seeds (0 = GOMAXPROCS)")
	maxRecords := flag.Int64("max-records", 0, "per-simulation dynamic record bound (0 = run to halt)")
	quiet := flag.Bool("q", false, "suppress per-seed progress")
	flag.Parse()

	if *seed < 0 && *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "mgdiff: need -seed N or -seeds N")
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	dir, err := os.MkdirTemp("", "mgdiff-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgdiff:", err)
		return 1
	}
	defer os.RemoveAll(dir) // spilled mode's scratch store
	eng, err := progen.NewEngines(0, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgdiff:", err)
		return 1
	}

	if *seed >= 0 {
		if err := progen.DiffSeed(ctx, eng, *seed, *maxRecords); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("seed %d: ok (8 arms x 3 modes)\n", *seed)
		return 0
	}

	n := *workers
	if n <= 0 {
		n = 4
	}
	var (
		next   = *start
		mu     sync.Mutex
		wg     sync.WaitGroup
		passed atomic.Int64
		failed atomic.Bool
	)
	errCh := make(chan error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				s := next
				next++
				mu.Unlock()
				if s >= *start+*seeds || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := progen.DiffSeed(ctx, eng, s, *maxRecords); err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
				p := passed.Add(1)
				if !*quiet && p%50 == 0 {
					fmt.Printf("%d/%d seeds ok\n", p, *seeds)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "mgdiff: interrupted after %d seeds\n", passed.Load())
		return 130
	}
	fmt.Printf("all %d seeds ok (8 arms x 3 modes each)\n", *seeds)
	return 0
}
