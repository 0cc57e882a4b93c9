package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/isa"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

// sampleKeys covers the key axes: baseline vs extracted, both inputs,
// policy, machine, and front-end (predictor/prefetcher) variations.
func sampleKeys() []SimKey {
	mg := uarch.MiniGraph(true)
	mg.Collapse = true
	tage := uarch.Baseline()
	tage.BPred = bpred.TageConfig()
	tage.Prefetcher = prefetch.DefaultDelta()
	mgpf := uarch.MiniGraph(false)
	mgpf.BPred.Kind = bpred.KindTAGE // sparse: canonicalization fills sizing
	mgpf.Prefetcher = prefetch.Config{Kind: prefetch.KindDelta, Degree: 4}
	keys := []SimKey{
		Baseline(PrepareKey{Bench: "sha", Input: workload.InputTrain}, tage).Key(),
		SimJob{
			Prepare: PrepareKey{Bench: "gzip", Input: workload.InputTrain},
			Policy:  core.DefaultPolicy(),
			Entries: 128,
			Config:  mgpf,
		}.Key(),
		Baseline(PrepareKey{Bench: "sha", Input: workload.InputTrain}, uarch.Baseline()).Key(),
		Baseline(PrepareKey{Bench: "gzip", Input: workload.InputTest}, uarch.MiniGraph(false)).Key(),
		SimJob{
			Prepare: PrepareKey{Bench: "adpcm.enc", Input: workload.InputTrain},
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  mg,
		}.Key(),
		SimJob{
			Prepare:  PrepareKey{Bench: "reed.dec", Input: workload.InputTrain},
			Policy:   core.IntegerPolicy(),
			Entries:  32,
			Compress: true,
			Config:   uarch.MiniGraph(false),
		}.Key(),
	}
	return keys
}

// TestSimKeyCodecRoundTrip checks encode→decode identity and encode
// determinism for representative keys.
func TestSimKeyCodecRoundTrip(t *testing.T) {
	for _, key := range sampleKeys() {
		data, err := EncodeSimKey(key)
		if err != nil {
			t.Fatalf("encode %+v: %v", key, err)
		}
		again, err := EncodeSimKey(key)
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("encoding is not deterministic: %q vs %q (%v)", data, again, err)
		}
		got, err := DecodeSimKey(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != key {
			t.Fatalf("round trip changed key:\n%+v\n%+v", key, got)
		}
	}
}

// TestPrepareKeyCodecRoundTrip is the same property for preparation keys.
func TestPrepareKeyCodecRoundTrip(t *testing.T) {
	for _, key := range []PrepareKey{
		{Bench: "sha", Input: workload.InputTrain},
		{Bench: "jpeg.comp", Input: workload.InputTest},
		{},
	} {
		data, err := EncodePrepareKey(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePrepareKey(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != key {
			t.Fatalf("round trip changed key: %+v vs %+v", key, got)
		}
	}
}

// TestCodecRejects pins the strictness guarantees the store relies on.
func TestCodecRejects(t *testing.T) {
	good, err := EncodeSimKey(sampleKeys()[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"not json":       []byte("pipeline"),
		"wrong version":  []byte(`{"v":999,"p":{}}`),
		"previous (v3)":  []byte(`{"v":3,"p":{}}`),
		"unknown field":  []byte(`{"v":1,"p":{"Bogus":1}}`),
		"trailing":       append(append([]byte{}, good...), '1'),
		"truncated":      good[:len(good)/2],
		"array envelope": []byte(`[1,2]`),
		"null payload":   []byte(`{"v":8,"p":null}`),
		"null then dup":  []byte(`{"v":8,"p":null,"p":{"Bogus":1}}`),
		"payload array":  []byte(`{"v":8,"p":[]}`),
	}
	for name, data := range cases {
		if _, err := DecodeSimKey(data); err == nil {
			t.Errorf("%s: decode accepted %q", name, data)
		}
	}
	if _, err := DecodeOutcome([]byte(`{"v":1,"p":{"result":null}}`)); err == nil {
		t.Error("outcome decode accepted a null result")
	}
	for name, data := range map[string]string{
		"null result":             `{"v":8,"p":{"result":null}}`,
		"null template":           `{"v":8,"p":{"result":{},"extraction":{"Templates":[null]}}}`,
		"negative covered":        `{"v":8,"p":{"result":{},"extraction":{"CoveredInsts":-1}}}`,
		"negative total":          `{"v":8,"p":{"result":{},"extraction":{"TotalInsts":-1}}}`,
		"negative candidates":     `{"v":8,"p":{"result":{},"extraction":{"CandidateCount":-1}}}`,
		"selection (old shape)":   `{"v":8,"p":{"result":{},"selection":{"CoveredInsts":1}}}`,
		"instances in extraction": `{"v":8,"p":{"result":{},"extraction":{"Instances":[]}}}`,
		"unknown envelope field":  `{"v":8,"p":{"result":{}},"x":1}`,
		"payload not an object":   `{"v":8,"p":[1]}`,
	} {
		if _, err := DecodeOutcome([]byte(data)); err == nil {
			t.Errorf("%s: outcome decode accepted %s", name, data)
		}
	}
	if out, err := DecodeOutcome([]byte(`{"v":8,"p":{"result":{},"extraction":{"Templates":[]}}}`)); err != nil || out.Selection == nil {
		t.Errorf("outcome decode refused an empty extraction: %v", err)
	}
}

// twoStepSeal is the envelope encoding seal replaced: marshal the payload,
// then marshal {"v", "p": json.RawMessage} around it.
func twoStepSeal(t testing.TB, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(struct {
		V int             `json:"v"`
		P json.RawMessage `json:"p"`
	}{CodecVersion, raw})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyOutcomePayload is the outcome payload as written before an
// outcome persisted only its extraction: the whole selection, instances
// included, under "selection".
type legacyOutcomePayload struct {
	Result    *uarch.Result   `json:"result"`
	Selection *core.Selection `json:"selection,omitempty"`
}

// subsetMiniGraphJobs is one mini-graph arm per subset benchmark. The
// record bound keeps the pipelines short; extraction sees the whole
// profile regardless, so the templates are the unbounded arm's.
func subsetMiniGraphJobs() []SimJob {
	var jobs []SimJob
	for _, bench := range workload.BenchSubset() {
		cfg := uarch.MiniGraph(true)
		cfg.MaxRecords = 3000
		jobs = append(jobs, SimJob{
			Prepare: PrepareKey{Bench: bench, Input: workload.InputTrain},
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  cfg,
		})
	}
	return jobs
}

// subsetOutcomes are the freshly computed outcomes of subsetMiniGraphJobs,
// shared by the tests that read them.
var subsetOutcomes = sync.OnceValues(func() ([]*Outcome, error) {
	return New(2).Run(context.Background(), subsetMiniGraphJobs())
})

// TestSealMatchesTwoStepEncoding pins seal byte for byte against the
// two-step encoding it replaced. Keys are content addresses: a single
// moved byte would turn every stored entry into a miss and re-deal the
// coordinator's placement.
func TestSealMatchesTwoStepEncoding(t *testing.T) {
	outs, err := subsetOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []byte, err error, payload any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := twoStepSeal(t, payload); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
	}
	for _, key := range sampleKeys() {
		data, err := EncodeSimKey(key)
		check("sim key", data, err, key)
		data, err = EncodePrepareKey(key.Prepare)
		check("prepare key", data, err, key.Prepare)
		tk := key.TraceKey()
		data, err = EncodeTraceKey(tk)
		check("trace key", data, err, traceKeyPayload{Kind: "trace", Key: tk})
		for _, chunk := range []int64{0, 1, 1 << 40} {
			data, err = EncodeTraceChunkKey(tk, chunk)
			check("trace-chunk key", data, err, traceChunkKeyPayload{Kind: "trace-chunk", Key: tk, Chunk: chunk})
		}
	}
	for _, out := range outs {
		s := out.Selection
		data, err := EncodeOutcome(out)
		check("mini-graph outcome", data, err, outcomePayload{Result: out.Result, Extraction: &extraction{
			Templates: s.Templates, CoveredInsts: s.CoveredInsts, TotalInsts: s.TotalInsts, CandidateCount: s.CandidateCount,
		}})
		base := &Outcome{Result: out.Result}
		data, err = EncodeOutcome(base)
		check("baseline outcome", data, err, outcomePayload{Result: out.Result})
	}
}

// TestOutcomeCarriesExtractionOnly: a subset mini-graph arm's outcome
// encodes in at most 4 KiB with no instances, and what its readers use —
// Coverage(), the template count and the templates — decodes equal to the
// fresh outcome's.
func TestOutcomeCarriesExtractionOnly(t *testing.T) {
	outs, err := subsetOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	for i, fresh := range outs {
		bench := subsetMiniGraphJobs()[i].Prepare.Bench
		if fresh.Selection == nil || len(fresh.Selection.Instances) == 0 || len(fresh.Selection.Templates) == 0 {
			t.Fatalf("%s: fresh outcome has no extraction to persist: %+v", bench, fresh.Selection)
		}
		data, err := EncodeOutcome(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 4<<10 {
			t.Errorf("%s: outcome is %d bytes, want <= 4 KiB", bench, len(data))
		}
		if bytes.Contains(data, []byte(`"Instances"`)) || bytes.Contains(data, []byte(`"selection"`)) {
			t.Errorf("%s: outcome persisted the selection: %s", bench, data)
		}
		got, err := DecodeOutcome(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Selection.Instances != nil {
			t.Errorf("%s: decoded outcome grew instances", bench)
		}
		if got.Selection.Coverage() != fresh.Selection.Coverage() || len(got.Selection.Templates) != len(fresh.Selection.Templates) {
			t.Errorf("%s: coverage %v / %d templates, want %v / %d", bench,
				got.Selection.Coverage(), len(got.Selection.Templates), fresh.Selection.Coverage(), len(fresh.Selection.Templates))
		}
		if !reflect.DeepEqual(got.Selection.Templates, fresh.Selection.Templates) {
			t.Errorf("%s: templates changed through the codec", bench)
		}
		if !reflect.DeepEqual(got.Result, fresh.Result) {
			t.Errorf("%s: result changed through the codec", bench)
		}
	}
}

// TestLegacyOutcomeShapes: an outcome written with the whole selection
// under "selection" no longer decodes (the store reads it as a miss and
// overwrites it), while a baseline outcome, which never carried one, is
// byte-for-byte what it was and re-encodes to the same bytes.
func TestLegacyOutcomeShapes(t *testing.T) {
	outs, err := subsetOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outs {
		legacy := twoStepSeal(t, legacyOutcomePayload{Result: out.Result, Selection: out.Selection})
		if _, err := DecodeOutcome(legacy); err == nil || !strings.Contains(err.Error(), `"selection"`) {
			t.Errorf("selection-shaped outcome: err %v, want an unknown-field error naming \"selection\"", err)
		}
		legacyBase := twoStepSeal(t, legacyOutcomePayload{Result: out.Result})
		got, err := DecodeOutcome(legacyBase)
		if err != nil {
			t.Fatalf("baseline outcome stopped decoding: %v", err)
		}
		again, err := EncodeOutcome(got)
		if err != nil || !bytes.Equal(again, legacyBase) {
			t.Errorf("baseline outcome re-encodes differently (%v)\n got %s\nwant %s", err, again, legacyBase)
		}
	}
}

// TestOutcomeCodecRoundTrip checks the persisted outcome form, including
// the nil-selection (baseline) shape.
func TestOutcomeCodecRoundTrip(t *testing.T) {
	out := &Outcome{
		Result: &uarch.Result{Cycles: 12345, Retired: 6789, Branches: 42, StallROB: 7},
		Selection: &core.Selection{
			CoveredInsts:   100,
			TotalInsts:     400,
			CandidateCount: 9,
		},
	}
	data, err := EncodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cycles != 12345 || got.Result.StallROB != 7 {
		t.Errorf("result fields lost: %+v", got.Result)
	}
	if got.Selection == nil || got.Selection.Coverage() != 0.25 {
		t.Errorf("selection lost: %+v", got.Selection)
	}

	base := &Outcome{Result: &uarch.Result{Cycles: 1}}
	data, err = EncodeOutcome(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Selection != nil {
		t.Errorf("baseline outcome grew a selection: %+v", got.Selection)
	}
}

// FuzzKeyCanonicalization drives DecodeSimKey with arbitrary bytes.
// Properties: decoding never panics, and any accepted input canonicalizes
// — re-encoding the decoded key succeeds, decodes back to the same key,
// and re-encoding is byte-stable (so the store's content address for a
// key is unique).
func FuzzKeyCanonicalization(f *testing.F) {
	for _, key := range sampleKeys() {
		data, err := EncodeSimKey(key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"p":{}}`))
	f.Add([]byte(`{"v":2,"p":{}}`))
	f.Add([]byte(`{"v":3,"p":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	// Front-end axis seeds: kinds that canonicalization must normalize.
	f.Add([]byte(`{"v":4,"p":{"Config":{"BPred":{"Kind":"tage"}}}}`))
	f.Add([]byte(`{"v":4,"p":{"Config":{"Prefetcher":{"Kind":"delta","Degree":3}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		key, err := DecodeSimKey(data)
		if err != nil {
			return // rejected inputs need only be rejected cleanly
		}
		enc, err := EncodeSimKey(key)
		if err != nil {
			t.Fatalf("decoded key fails to encode: %+v: %v", key, err)
		}
		again, err := DecodeSimKey(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\n%s", err, enc)
		}
		if again != key {
			t.Fatalf("canonicalization changed key:\n%+v\n%+v", key, again)
		}
		enc2, err := EncodeSimKey(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point: %q vs %q (%v)", enc, enc2, err)
		}
	})
}

// FuzzOutcomeCodec drives DecodeOutcome with arbitrary bytes. Decoding
// must never panic, every accepted payload must carry a non-nil Result,
// and re-encoding an accepted outcome must be byte-stable — the store's
// byte-equality invariant for outcomes depends on it.
func FuzzOutcomeCodec(f *testing.F) {
	full := &Outcome{
		Result: &uarch.Result{Cycles: 12345, Retired: 6789, RetiredDigest: 0xdeadbeef},
		Selection: &core.Selection{
			CoveredInsts:   100,
			TotalInsts:     400,
			CandidateCount: 9,
		},
	}
	// A two-instruction chain: add an input and an immediate, subtract the
	// second input from it.
	tmpl := &core.Template{
		Insns: []core.TemplateInsn{
			{Op: isa.OpAddq, A: core.Operand{Kind: core.OpndExt, Idx: 0}, B: core.Operand{Kind: core.OpndImm}, Imm: 4},
			{Op: isa.OpSubq, A: core.Operand{Kind: core.OpndInt, Idx: 0}, B: core.Operand{Kind: core.OpndExt, Idx: 1}},
		},
		NumIn: 2, OutIdx: 1, MemIdx: -1, BranchIdx: -1,
	}
	withTemplates := &Outcome{
		Result:    &uarch.Result{Cycles: 777, Retired: 500},
		Selection: &core.Selection{Templates: []*core.Template{tmpl, tmpl}, CoveredInsts: 50, TotalInsts: 600, CandidateCount: 3},
	}
	for _, out := range []*Outcome{full, withTemplates, {Result: &uarch.Result{Cycles: 1}}} {
		data, err := EncodeOutcome(out)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Crashers the strict decoder must reject, kept as seeds so the
	// rejection paths stay covered: null result, version lies, truncation
	// and trailing garbage.
	f.Add([]byte(`{"v":5,"p":{"result":null}}`))
	f.Add([]byte(`{"v":999,"p":{"result":{}}}`))
	f.Add([]byte(`{"v":5,"p":{"result":{}}}{"v":5}`))
	f.Add([]byte(`{"v":5,"p":{"resu`))
	f.Add([]byte(``))
	// v8 shapes: an outcome carrying the whole selection (instances
	// included) as it was once written, and a null template.
	f.Add([]byte(`{"v":8,"p":{"result":{"Cycles":9},"selection":{"Templates":null,"Instances":[{"Instance":{"Block":0,"Members":[1,2],"Anchor":2},"MGID":0}],"CoveredInsts":1,"TotalInsts":2,"CandidateCount":1}}}`))
	f.Add([]byte(`{"v":8,"p":{"result":{"Cycles":9},"extraction":{"Templates":[null],"CoveredInsts":1,"TotalInsts":2,"CandidateCount":1}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeOutcome(data)
		if err != nil {
			return
		}
		if out.Result == nil {
			t.Fatal("accepted outcome with nil result")
		}
		enc, err := EncodeOutcome(out)
		if err != nil {
			t.Fatalf("decoded outcome fails to encode: %v", err)
		}
		again, err := DecodeOutcome(enc)
		if err != nil {
			t.Fatalf("re-encoded outcome fails to decode: %v", err)
		}
		enc2, err := EncodeOutcome(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("outcome encoding is not a fixed point (%v)", err)
		}
	})
}
