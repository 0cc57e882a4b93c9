// Command bench is the repository's benchmark: five sweep workloads, five
// bounded end-to-end metrics plus a failure count, and an outside-in layer
// trace. See README.md in this directory.
//
// Without -workload it runs every workload in a fresh child process each
// and prints a table; with -workload it runs that one workload in this
// process and prints one JSON result as the last line of standard output
// (the form the benchmark driver calls, through run.sh). -compare A B
// applies the regression bounds to two saved result files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s as close to process start as Go code gets.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	cpus     int
	portBase int
	scale    int
	repo     string
	traceOut string

	workloads string
	runs      int
	out       string
	prewarm   bool
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and print its JSON result (empty: run all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for machine points and request order")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (spans on, layer replay, per-layer metrics); 0: end-to-end metrics")
	flag.IntVar(&o.cpus, "cpus", defaultCPUs(), "GOMAXPROCS and engine workers; serve_tier runs one closed-loop client for every two")
	flag.IntVar(&o.portBase, "port-base", 39400, "first of 4 fixed loopback ports for serve_tier (fixed so worker placement repeats)")
	flag.IntVar(&o.scale, "scale", 1, "divide workload sizes by this (tests use a large value for a quick smoke; results are only comparable at 1)")
	flag.StringVar(&o.repo, "repo", "", "repository root holding testdata/golden (default: found from the working directory)")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file written by a traced run (default: under the temp dir)")
	flag.StringVar(&o.workloads, "workloads", strings.Join(workloadNames(), ","), "workloads to run when -workload is empty")
	flag.IntVar(&o.runs, "runs", 1, "complete sets of runs when -workload is empty")
	flag.StringVar(&o.out, "out", "", "write every run's result to this JSON file (input to -compare)")
	flag.BoolVar(&o.prewarm, "prewarm", false, "touch the memory -workload will need, release it and exit (run.sh does this before each run)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := func() int {
		defer stop()
		switch {
		case compare:
			if flag.NArg() != 2 {
				fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
				return 2
			}
			return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		case flag.NArg() != 0:
			fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
			return 2
		case o.prewarm:
			return runPrewarm(o.workload)
		case o.workload != "":
			return runChild(ctx, o)
		default:
			return runAll(ctx, o)
		}
	}()
	os.Exit(code)
}

func defaultCPUs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// findRepo locates the repository root: the nearest directory at or above
// the working directory that holds testdata/golden.
func findRepo(hint string) (string, error) {
	if hint != "" {
		return hint, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "testdata", "golden")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no testdata/golden at or above the working directory; pass -repo")
		}
		dir = parent
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON a single-workload run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in this process.
func runChild(ctx context.Context, o options) int {
	res, notes, err := measure(ctx, o)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "bench:", n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// prewarm touches mb MiB of fresh anonymous memory and gives it back. On a
// virtual machine, guest pages the host has never backed fault in about ten
// times slower than recycled ones (6.5 s/GiB against 0.6 s/GiB on the
// sandbox this was written on), and which kind an allocation gets wanders
// over minutes: without this, allocation-heavy rounds swing by 20 % for
// reasons that have nothing to do with the program. Touching the memory in
// a throw-away process (or here, before any child starts) leaves warm pages
// on the kernel's free lists and nothing in the measured process's VmHWM.
func prewarm(mb int) {
	b, err := syscall.Mmap(-1, 0, mb<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return // best effort: the run is only noisier without it
	}
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 1
	}
	_ = syscall.Munmap(b)
}

func runPrewarm(workload string) int {
	w, ok := findWorkload(workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: -prewarm needs a known -workload, got %q\n", workload)
		return 2
	}
	prewarm(w.PrewarmMB)
	return 0
}
