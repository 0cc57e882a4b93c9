package sim

import (
	"bytes"
	"context"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"minigraph/internal/store"
)

// crashBudget measures what crashScript stores — its traces' segments
// and its outcomes — in an unbounded store, and returns a budget half the
// smallest segment short of all of it: it holds three of the four traces
// and the outcomes, so publishing the last file evicts the least recently
// used one. Measured rather than fixed, so no change to how large a trace
// is stored can turn the budget into one that evicts nothing.
func crashBudget(t *testing.T, jobs []SimJob) int64 {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(1).WithStore(st).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(testChunkWindow)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	var segs []int64
	filepath.Walk(dir, func(p string, info fs.FileInfo, err error) error {
		if err == nil && filepath.Ext(p) == store.SegExt {
			segs = append(segs, info.Size())
		}
		return nil
	})
	if len(segs) != 4 {
		t.Fatalf("crashScript's jobs stored %d trace segments, want 4", len(segs))
	}
	return st.Stats().Bytes - slices.Min(segs)/2
}

type opKind int

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opRename
	opRemove
	opChtimes
)

// fsOp is one operation that changed the directory under a recorder's
// root. Paths are relative to the root.
type fsOp struct {
	kind     opKind
	path, to string    // to: a rename's target
	off      int64     // a write's offset
	data     []byte    // a write's bytes
	mtime    time.Time // a Chtimes's
}

// recorder is a store.FS that logs every operation that changes the
// directory under root, in the order they took effect: one lock spans each
// operation and its entry in the log.
type recorder struct {
	store.OS
	root string

	mu  sync.Mutex
	ops []fsOp
}

func (r *recorder) rel(name string) string {
	return strings.TrimPrefix(name, r.root+string(filepath.Separator))
}

// do runs one operation and logs op if it took effect.
func (r *recorder) do(op fsOp, fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := fn()
	if err == nil {
		r.ops = append(r.ops, op)
	}
	return err
}

func (r *recorder) MkdirAll(path string, perm fs.FileMode) error {
	return r.do(fsOp{kind: opMkdir, path: r.rel(path)}, func() error { return r.OS.MkdirAll(path, perm) })
}

func (r *recorder) CreateTemp(dir, pattern string) (store.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.ops = append(r.ops, fsOp{kind: opCreate, path: r.rel(f.Name())})
	return recFile{f, r}, nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	return r.do(fsOp{kind: opRename, path: r.rel(oldpath), to: r.rel(newpath)}, func() error { return r.OS.Rename(oldpath, newpath) })
}

func (r *recorder) Remove(name string) error {
	return r.do(fsOp{kind: opRemove, path: r.rel(name)}, func() error { return r.OS.Remove(name) })
}

func (r *recorder) Chtimes(name string, atime, mtime time.Time) error {
	return r.do(fsOp{kind: opChtimes, path: r.rel(name), mtime: mtime}, func() error { return r.OS.Chtimes(name, atime, mtime) })
}

// recFile is a file a recorder opened for writing.
type recFile struct {
	store.File
	r *recorder
}

func (f recFile) WriteAt(p []byte, off int64) (n int, err error) {
	op := fsOp{kind: opWrite, path: f.r.rel(f.Name()), off: off, data: bytes.Clone(p)}
	err = f.r.do(op, func() error {
		n, err = f.File.WriteAt(p, off)
		return err
	})
	return n, err
}

// rebuild makes dir the directory ops leave behind, except that each write
// torn names lands only its first torn[i] bytes.
func rebuild(t *testing.T, dir string, ops []fsOp, torn map[int]int) {
	t.Helper()
	for i, op := range ops {
		p := filepath.Join(dir, op.path)
		var err error
		switch op.kind {
		case opMkdir:
			err = os.MkdirAll(p, 0o777)
		case opCreate, opWrite:
			var f *os.File
			if f, err = os.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o666); err == nil {
				data := op.data
				if n, ok := torn[i]; ok {
					data = data[:n]
				}
				_, err = f.WriteAt(data, op.off)
				f.Close()
			}
		case opRename:
			err = os.Rename(p, filepath.Join(dir, op.to))
		case opRemove:
			err = os.Remove(p)
		case opChtimes:
			err = os.Chtimes(p, op.mtime, op.mtime)
		}
		if err != nil {
			t.Fatalf("replaying operation %d (kind %d on %s): %v", i, op.kind, op.path, err)
		}
	}
}

// tears picks the writes of ops a crash tears, and where: the last write,
// the one in flight, and up to two earlier ones, since with nothing synced
// any write may be lost even after a later rename landed. Each lands a
// strict prefix of its bytes, possibly none.
func tears(rng *rand.Rand, ops []fsOp) map[int]int {
	var writes []int
	for i, op := range ops {
		if op.kind == opWrite {
			writes = append(writes, i)
		}
	}
	if len(writes) == 0 {
		return nil
	}
	torn := map[int]int{}
	picks := append([]int{writes[len(writes)-1]}, writes[rng.Intn(len(writes))], writes[rng.Intn(len(writes))])
	for _, i := range picks[:1+rng.Intn(3)] {
		torn[i] = rng.Intn(len(ops[i].data))
	}
	return torn
}

// crashJobs is storeJobs (3000 records, twelve 256-record chunks a trace)
// plus a second arm over the mini-graph sha trace, which replays that
// trace from its stored segment.
func crashJobs() []SimJob {
	jobs := storeJobs()
	arm := jobs[1]
	arm.Config.MemLatency += 40
	return append(jobs, arm)
}

// rotOutcome flips one bit of the stored outcome of the last of jobs the
// store still holds (the budget may have evicted others) where only the
// entry's checksum can tell: the last digit of its cycle count, which
// still parses and decodes to another outcome. The flip is a recorded
// write, so the rebuilt states hold the rotted entry until the scrub.
func rotOutcome(t *testing.T, fsys *recorder, root string, jobs []SimJob) {
	t.Helper()
	var key []byte
	var path string
	var data []byte
	for i := len(jobs) - 1; i >= 0 && path == ""; i-- {
		var err error
		if key, err = EncodeSimKey(jobs[i].Key()); err != nil {
			t.Fatal(err)
		}
		fsys.Walk(root, func(p string, info fs.FileInfo, err error) error {
			if err == nil && filepath.Ext(p) == store.EntryExt {
				if d, err := fsys.ReadFile(p); err == nil && bytes.Contains(d, key) {
					path, data = p, d
				}
			}
			return nil
		})
	}
	if path == "" {
		t.Fatal("no stored outcome of any job")
	}
	const field = `"Cycles":`
	at := bytes.Index(data, key) + len(key)
	i := bytes.Index(data[at:], []byte(field))
	if i < 0 {
		t.Fatalf("the stored outcome at %s has no cycle count", path)
	}
	for i += at + len(field); data[i+1] >= '0' && data[i+1] <= '9'; i++ {
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := (recFile{f, fsys}).WriteAt([]byte{data[i] ^ 1}, int64(i)); err != nil {
		t.Fatal(err)
	}
}

// crashScript is the workload whose operations the crash test replays. A
// cold engine with a bounded chunk window captures every trace, publishes
// each as a segment and replays it spilled, and writes every outcome
// through, under a budget that evicts; bit rot then damages one stored
// outcome and a scrub deletes it; a fresh store and engine then reopen the
// directory and answer the sweep from what is left, recomputing the rest.
// Both sweeps run their jobs one at a time, in order, so every run of the
// script records the same sequence of operations.
func crashScript(t *testing.T, fsys *recorder, dir string, jobs []SimJob, budget int64) {
	t.Helper()
	ctx := context.Background()
	sweep := func(eng *Engine) {
		for _, j := range jobs {
			if _, err := eng.Simulate(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func() (*store.Store, *Engine) {
		st, err := store.Open(dir, store.Options{MaxBytes: budget, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		return st, New(1).WithStore(st).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(testChunkWindow)
	}
	st, eng := open()
	sweep(eng)
	if ss := st.Stats(); ss.Evictions == 0 {
		t.Fatalf("the budget evicted nothing: %+v", ss)
	}
	rotOutcome(t, fsys, st.Dir(), jobs)
	if rep := st.Scrub(); rep.Corrupt == 0 {
		t.Fatalf("the scrub deleted nothing: %+v", rep)
	}
	_, eng = open()
	sweep(eng)
	if es := eng.Stats(); es.StoreHits == 0 || es.PipelineSims() == 0 {
		t.Fatalf("the reopened engine should hit outcomes and recompute the rest: %+v", es)
	}
}

// TestCrashAtEveryWrite is the ALICE method (Pillai et al., "All File
// Systems Are Not Created Equal", OSDI 2014) applied to the store under an
// engine. It records every operation crashScript makes to its directory,
// then rebuilds the directory a crash after each prefix of that log could
// leave: once intact, and once with seeded writes of the prefix torn at
// seeded lengths (see tears). The store never syncs, by design, so that is
// every state a crash can leave. A fresh store and engine then run the
// sweep over each state, and every outcome must be byte-identical to a
// fault-free run's: a crash may cost recomputation, never an answer.
// -short checks every eighth prefix. The script is recorded twice and the
// two logs must have the same operation kinds in the same order.
func TestCrashAtEveryWrite(t *testing.T) {
	ctx := context.Background()
	jobs := crashJobs()
	ref, err := New(2).Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(jobs))
	for i, out := range ref {
		if want[i], err = EncodeOutcome(out); err != nil {
			t.Fatal(err)
		}
	}

	budget := crashBudget(t, jobs)
	record := func() []fsOp {
		rec := &recorder{root: t.TempDir()}
		crashScript(t, rec, rec.root, jobs, budget)
		return rec.ops
	}
	ops := record()
	// The log must not depend on scheduling, or the states checked would
	// differ from run to run. Paths are not compared: CreateTemp names are
	// random.
	if again := record(); !slices.EqualFunc(ops, again, func(a, b fsOp) bool { return a.kind == b.kind }) {
		t.Fatalf("two recordings of crashScript differ: %d and %d operations", len(ops), len(again))
	}

	dir := filepath.Join(t.TempDir(), "state")
	check := func(n int, torn map[int]int) {
		t.Helper()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		rebuild(t, dir, ops[:n], torn)
		st, err := store.Open(dir, store.Options{MaxBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(2).WithStore(st).WithTraceChunkRecords(testChunkRecords).WithTraceChunkWindow(testChunkWindow)
		outs, err := eng.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("after %d of %d operations, torn %v: %v", n, len(ops), torn, err)
		}
		for i, out := range outs {
			if got, err := EncodeOutcome(out); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("after %d of %d operations, torn %v: job %d's outcome differs from the fault-free run's (%v)", n, len(ops), torn, i, err)
			}
		}
	}
	stride := 1
	if testing.Short() {
		stride = 8
	}
	rng := rand.New(rand.NewSource(1))
	intact, torn := 0, 0
	for n := 0; ; n = min(n+stride, len(ops)) {
		check(n, nil)
		intact++
		if tn := tears(rng, ops[:n]); tn != nil {
			check(n, tn)
			torn++
		}
		if n == len(ops) {
			break
		}
	}
	t.Logf("%d operations recorded; %d states checked intact, %d torn", len(ops), intact, torn)
}
