package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"minigraph/internal/sim"
)

// checker counts operations against failures: the correctness gate behind
// fail_share. An operation is an arm, a report or a request; it fails on
// an engine or HTTP error or on any check below.
type checker struct {
	attempted int
	failed    int
	failures  []string // the first few, for the log
}

// op records n operations that pass or fail together.
func (c *checker) op(n int, ok bool, format string, args ...any) bool {
	c.attempted += n
	if !ok {
		c.failed += n
		if len(c.failures) < 8 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkOutcome is check (b): the pipeline must retire exactly what the
// functional emulator executed for the same binary.
func checkOutcome(refs map[sim.TraceKey]emuRef, job sim.SimJob, out *sim.Outcome) error {
	ref, ok := refs[job.Key().TraceKey()]
	if !ok {
		return fmt.Errorf("no emulator reference for %s", job.Prepare.Bench)
	}
	if out == nil || out.Result == nil {
		return fmt.Errorf("%s: no outcome", job.Prepare.Bench)
	}
	if out.Result.RetiredDigest != ref.Digest {
		return fmt.Errorf("%s @ %s: retired digest %#x, emulator %#x", job.Prepare.Bench, job.Config.Name, out.Result.RetiredDigest, ref.Digest)
	}
	if out.Result.Retired != ref.Retired {
		return fmt.Errorf("%s @ %s: retired %d records, emulator executed %d", job.Prepare.Bench, job.Config.Name, out.Result.Retired, ref.Retired)
	}
	return nil
}

// checkOutcomes applies checkOutcome to a finished Engine.Run, one
// operation per arm, and returns how many arms passed.
func (c *checker) checkOutcomes(refs map[sim.TraceKey]emuRef, jobs []sim.SimJob, outs []*sim.Outcome, runErr error) int {
	if runErr != nil {
		c.op(len(jobs), false, "engine: %v", runErr)
		return 0
	}
	good := 0
	for i, job := range jobs {
		err := checkOutcome(refs, job, outs[i])
		if c.op(1, err == nil, "%v", err) {
			good++
		}
	}
	return good
}

// encodeAll renders outcomes in the canonical encoding, the byte form the
// cross-path identity checks (c) compare.
func encodeAll(outs []*sim.Outcome) ([][]byte, error) {
	enc := make([][]byte, len(outs))
	for i, out := range outs {
		var err error
		if enc[i], err = sim.EncodeOutcome(out); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// sameBytes reports the first index at which two encoded lists differ, or
// -1 when they are byte-identical.
func sameBytes(a, b [][]byte) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// peakRSSBytes is this process's resident-set high-water mark (VmHWM).
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
