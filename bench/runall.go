package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runRecord is one child run as saved by -out and read by -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Set      int    `json:"set"` // which complete set of runs this belongs to
	result
}

// resultFile is the -out document.
type resultFile struct {
	Schema    string      `json:"schema"`
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"num_cpu"`
	CPUs      int         `json:"cpus"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Scale     int         `json:"scale"`
	Runs      []runRecord `json:"runs"`
}

const resultSchema = "minigraph-bench/v1"

// runAll runs every selected workload in a fresh child process each (own
// heap, own VmHWM, no cache shared between workloads), o.runs times over,
// and prints every metric by name with its unit. The exit code is non-zero
// if any child failed a check or could not run.
func runAll(ctx context.Context, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var specs []workloadSpec
	for _, n := range strings.Split(o.workloads, ",") {
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", n, strings.Join(workloadNames(), " "))
			return 2
		}
		specs = append(specs, w)
	}
	file := resultFile{Schema: resultSchema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		CPUs: o.cpus, Seed: o.seed, Seconds: o.seconds, Scale: o.scale}
	code := 0
	traces := []int{0}
	if o.trace != 0 {
		traces = []int{0, 1} // end-to-end numbers always come from the untraced run
	}
	for set := 0; set < o.runs; set++ {
		for _, w := range specs {
			name := w.Name
			for _, tr := range traces {
				prewarm(w.PrewarmMB)
				res, err := runOne(ctx, self, name, tr, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", name, tr, err)
					if code == 0 {
						code = 1
					}
					var ee *exec.ExitError
					if errors.As(err, &ee) && ee.ExitCode() > 0 {
						code = ee.ExitCode() // propagate the child's own exit code
					}
				}
				if res != nil {
					file.Runs = append(file.Runs, runRecord{Workload: name, Trace: tr, Set: set, result: *res})
				}
				if ctx.Err() != nil {
					return 1
				}
			}
		}
	}
	printTable(os.Stdout, file)
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o666)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runOne runs one workload in a child process and parses the JSON result
// on the last line of its standard output. A child that printed a result
// and then exited non-zero (a failed check) returns both.
func runOne(ctx context.Context, self, name string, trace int, o options) (*result, error) {
	args := []string{
		"-workload", name, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-cpus", strconv.Itoa(o.cpus), "-port-base", strconv.Itoa(o.portBase), "-scale", strconv.Itoa(o.scale),
	}
	if o.repo != "" {
		args = append(args, "-repo", o.repo)
	}
	if o.traceOut != "" && trace != 0 {
		args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"-"+name+".json")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result on the last line of output: %w", err)
	}
	return &res, runErr
}

// printTable prints every metric of every run by name, with its unit.
func printTable(w io.Writer, f resultFile) {
	fmt.Fprintf(w, "minigraph bench: cpus=%d (of %d) seed=%d seconds=%g scale=%d %s\n", f.CPUs, f.NumCPU, f.Seed, f.Seconds, f.Scale, f.GoVersion)
	fmt.Fprintln(w, "timing model unvalidated against hardware or the paper's figures; modelled caches and predictors start empty")
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, r := range f.Runs {
		kind, specs := "end-to-end", endToEndSpecs
		if r.Trace != 0 {
			kind, specs = "per-layer", perLayerSpecs
		}
		fmt.Fprintf(tw, "\n%s\tset %d\t%s\tcorrect=%v\t\n", r.Workload, r.Set, kind, r.Correct)
		fmt.Fprintf(tw, "  fail_share\t%g\tratio\t(%d failed / %d attempted)\t\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
		for _, m := range specs {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\t\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	tw.Flush()
}
