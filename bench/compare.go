package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (workload, end-to-end metric) row of a comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// samples collects one metric's values over a file's untraced runs of one
// workload.
func (f *resultFile) samples(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func (f *resultFile) failShare(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// judge applies one metric's bound: b may be worse than a by at most bound
// (a share of a's median). Where either side's run-to-run spread is wider
// than the bound the row is unresolved, not unchanged — unless every run of
// b reads better than every run of a.
func judge(m metricSpec, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > m.Bound {
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if m.Better == "higher" {
		return percentile(b, 0) > percentile(a, 100)
	}
	return percentile(b, 100) < percentile(a, 0)
}

// runCompare prints one row per workload and end-to-end metric and returns
// the process exit code: 1 if any row regressed, 2 if a file is unusable.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.CPUs != b.CPUs || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale {
		fmt.Fprintf(w, "warning: settings differ (cpus %d/%d seed %d/%d seconds %g/%g scale %d/%d); rows are not like for like\n",
			a.CPUs, b.CPUs, a.Seed, b.Seed, a.Seconds, b.Seconds, a.Scale, b.Scale)
	}
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tspread A\tspread B\tverdict\t")
	for _, ws := range workloadSpecs {
		inBoth := false
		for _, m := range endToEndSpecs {
			xa, xb := a.samples(ws.Name, m.Name), b.samples(ws.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			inBoth = true
			v, worse := judge(m, xa, xb)
			regressed = regressed || v == verdictRegression
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				ws.Name, m.Name, median(xa), median(xb), 100*worse, 100*m.Bound, 100*spread(xa), 100*spread(xb), v)
		}
		if !inBoth {
			continue
		}
		// fail_share has no slack: any increase is a regression.
		fa, fb := a.failShare(ws.Name), b.failShare(ws.Name)
		v := verdictOK
		if fb > fa {
			v, regressed = verdictRegression, true
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%.5g\t%.5g\t\tany\t\t\t%s\t\n", ws.Name, fa, fb, v)
	}
	tw.Flush()
	compareExact(w, a, b)
	if regressed {
		return 1
	}
	return 0
}

// traced returns the per-layer metrics of a file's first traced run of a
// workload.
func (f *resultFile) traced(workload string) map[string]metricValue {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace != 0 {
			return r.Metrics
		}
	}
	return nil
}

// compareExact lists the exact-repeat counts (simulated statistics and
// counters of deterministic work) that read differently in the two files'
// traced runs. At one commit, seed and -cpus none may differ; across
// commits a difference means the change altered what is simulated or how
// much work is done, which a host-speed change must not. It is reported,
// not judged: a modelling change moves these on purpose.
func compareExact(w io.Writer, a, b *resultFile) {
	compared, changed := 0, 0
	for _, ws := range workloadSpecs {
		ma, mb := a.traced(ws.Name), b.traced(ws.Name)
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range perLayerSpecs {
			if !exactRepeat[m.Name] {
				continue
			}
			compared++
			if ma[m.Name].Value != mb[m.Name].Value {
				changed++
				fmt.Fprintf(w, "exact-repeat count changed: %s %s %v -> %v %s\n", ws.Name, m.Name, ma[m.Name].Value, mb[m.Name].Value, m.Unit)
			}
		}
	}
	if compared > 0 {
		fmt.Fprintf(w, "%d exact-repeat counts compared, %d changed\n", compared, changed)
	}
}
