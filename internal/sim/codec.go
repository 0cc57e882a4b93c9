package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"minigraph/internal/core"
	"minigraph/internal/uarch"
)

// CodecVersion is the on-the-wire version of the canonical key and outcome
// encodings. Any change to the shape of PrepareKey, SimKey, uarch.Result,
// core.Template, the outcome payload or the envelope below must bump it:
// persisted entries written under an older version then read back as
// misses instead of decoding into garbage. The one exception is a change
// every old encoding already fails under strict decoding (see the note
// after 8).
//
// Version history:
//
//	1: initial encoding.
//	2: uarch.Config grew MemLatency (configurable DRAM latency).
//	3: SimKey canonicalizes the config's stream-window override to 0 (the
//	   live stream now derives its window from the machine, so the override
//	   is not part of a simulation's identity), and TraceKey joined the key
//	   family for persisted dynamic-trace blobs.
//	4: pluggable front end — bpred.Config grew Kind + TAGE sizing,
//	   uarch.Config grew Prefetcher, uarch.Result grew BTB/RAS and
//	   prefetch counters, and SimKey canonicalizes both front-end axes
//	   per kind (explicit kind, defaults filled, inactive sizing zeroed).
//	5: differential oracle — uarch.Result grew RetiredDigest, and the
//	   trace blob codec moved to v2 (rows carry destVal/storeVal), so
//	   both outcomes and trace blobs persisted under v4 re-read as misses.
//	6: chunked trace substrate — the store entry under a TraceKey became
//	   the trace *manifest* (trace codec v3) with per-chunk payloads in
//	   their own "trace-chunk" entries, so v5 monolithic trace blobs
//	   re-read as misses instead of being re-encoded on read.
//	7: emu.Digest folds a word in one multiply instead of FNV-1a's eight,
//	   so every RetiredDigest value changed. The payload shape did not,
//	   which is exactly why the version must: a v6 outcome would decode
//	   cleanly and carry a digest no emulator of this tree reproduces. v6
//	   outcomes re-read as misses (and, keys being versioned too, so do v6
//	   trace manifests: one re-capture each).
//	8: trace codec v4 — the manifest under a TraceKey grew the per-pc
//	   static table and a per-chunk NextPC, and the rows under its
//	   trace-chunk keys shrank to their 28 dynamic bytes. Nothing in a key
//	   or an outcome changed shape; the version moves so that no store
//	   lookup under a v8 key can land on a v7 manifest or 43-byte chunk
//	   (the trace codec would reject them anyway — this makes them
//	   unreachable rather than rejected). v7 outcomes re-read as misses
//	   too: one re-simulation each.
//
// The outcome payload changed shape under 8 without a bump: its
// "selection" (the whole core.Selection, whose selected instances were up
// to nine tenths of a mini-graph outcome's bytes and which no reader of
// an outcome looks at) became "extraction" (the templates and the
// coverage counts). The field's new name is the version here. An outcome written
// with "selection" fails the strict decode as an unknown field, so it
// reads as a miss, is re-simulated once and is overwritten under the same
// key; a baseline outcome carries neither field, so its bytes did not
// change and it stays a hit. Moving the constant instead would have moved
// every key, and with them every stored trace and the coordinator's
// rendezvous placement, for no gain.
//
// Trace codecs v5 (variable-width rows, a byte count per chunk in the
// manifest) and v6 (rows without a pc, values as prefix varints) did not
// move it either, for the same reason: no key and no outcome changed
// shape, and the trace codec's own version check already rejects an
// older manifest or frame. A segment of the previous trace codec under an
// unchanged key is a miss, recaptured once and republished in the current
// one under that key (TestStaleTraceSegmentIsRewritten); stored outcomes
// stay hits.
//
// uarch.Config lost its stream-window field, the live stream's rewind-window
// override, without a bump either. SimKey cleared it, so every SimKey
// encoding drops that field's zero and the outcome keys move: an older
// store's outcomes are never found again, and each arm is re-simulated once
// and written under its new key. TraceKey holds no machine, so stored traces and the
// coordinator's rendezvous placement do not move, and an old outcome can
// only be unreachable, never misread. Moving the constant would have moved
// the trace keys too, and recaptured every stored trace for nothing.
const CodecVersion = 8

// sealPrefix opens the versioned envelope {"v":CodecVersion,"p":payload}
// that wraps every encoded value.
var sealPrefix = fmt.Sprintf(`{"v":%d,"p":`, CodecVersion)

// seal writes the envelope around payload's JSON encoding directly. The
// bytes are exactly what marshalling a {V, P json.RawMessage} struct gave,
// without compacting and re-scanning the payload a second time; keys are
// content addresses, so codec_test pins the two byte for byte.
func seal(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(sealPrefix)+len(raw)+1)
	buf = append(buf, sealPrefix...)
	buf = append(buf, raw...)
	return append(buf, '}'), nil
}

// open decodes an envelope and its payload in one strict pass: unknown
// fields anywhere, trailing data and any version but CodecVersion are
// errors. An absent payload leaves payload zero; the decoders check the
// fields they need (an outcome's result, a trace key's kind). A null "p"
// is an error: it would let a later duplicate "p" decode into a map,
// where unknown fields are not checked.
func open(data []byte, payload any) error {
	env := struct {
		V int `json:"v"`
		P any `json:"p"`
	}{P: payload}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("sim: envelope: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("sim: trailing data after envelope")
	}
	if env.V != CodecVersion {
		return fmt.Errorf("sim: codec version %d, want %d", env.V, CodecVersion)
	}
	if env.P != payload {
		return fmt.Errorf("sim: payload is not an object")
	}
	return nil
}

// EncodeSimKey renders key in the canonical versioned JSON encoding. Equal
// keys encode to equal bytes; the persistent result store uses the bytes as
// the content address of the job's outcome.
func EncodeSimKey(key SimKey) ([]byte, error) { return seal(key) }

// DecodeSimKey parses a canonical SimKey encoding. It rejects version
// mismatches, unknown fields and trailing garbage.
func DecodeSimKey(data []byte) (SimKey, error) {
	var key SimKey
	err := open(data, &key)
	return key, err
}

// traceKeyPayload wraps a TraceKey with an explicit kind marker so a
// trace's content address can never collide with a SimKey's, even if the
// two structs ever converge shapewise.
type traceKeyPayload struct {
	Kind string   `json:"kind"`
	Key  TraceKey `json:"key"`
}

// EncodeTraceKey renders key in the canonical versioned JSON encoding.
// Equal keys encode to equal bytes; the persistent store uses the bytes as
// the content address of the captured trace's manifest. The manifest
// itself uses the trace package's binary codec, which carries its own
// version.
func EncodeTraceKey(key TraceKey) ([]byte, error) {
	return seal(traceKeyPayload{Kind: "trace", Key: key})
}

// DecodeTraceKey parses a canonical TraceKey encoding. It rejects version
// mismatches, unknown fields, wrong kinds and trailing garbage.
func DecodeTraceKey(data []byte) (TraceKey, error) {
	var p traceKeyPayload
	if err := open(data, &p); err != nil {
		return TraceKey{}, err
	}
	if p.Kind != "trace" {
		return TraceKey{}, fmt.Errorf("sim: key kind %q, want \"trace\"", p.Kind)
	}
	return p.Key, nil
}

// traceChunkKeyPayload addresses one chunk of a chunked trace: the parent
// TraceKey plus the chunk index. Its own kind marker keeps chunk entries
// from ever colliding with the manifest entry under the bare TraceKey.
type traceChunkKeyPayload struct {
	Kind  string   `json:"kind"`
	Key   TraceKey `json:"key"`
	Chunk int64    `json:"chunk"`
}

// EncodeTraceChunkKey renders the canonical content address of chunk
// `chunk` of key's trace. The chunk payload stored under it uses the trace
// package's chunk-frame binary codec; the manifest naming every chunk
// lives under EncodeTraceKey(key).
func EncodeTraceChunkKey(key TraceKey, chunk int64) ([]byte, error) {
	if chunk < 0 {
		return nil, fmt.Errorf("sim: negative chunk index %d", chunk)
	}
	return seal(traceChunkKeyPayload{Kind: "trace-chunk", Key: key, Chunk: chunk})
}

// outcomePayload is the persisted form of an Outcome.
type outcomePayload struct {
	Result     *uarch.Result `json:"result"`
	Extraction *extraction   `json:"extraction,omitempty"`
}

// extraction is the part of a core.Selection that readers of an outcome
// use: the MGT templates and the coverage counts. The selected instances
// stay with the engine that extracted them.
type extraction struct {
	Templates      []*core.Template
	CoveredInsts   int64
	TotalInsts     int64
	CandidateCount int
}

// EncodeOutcome renders a simulation outcome in the versioned JSON
// encoding used by the persistent result store and the worker wire.
// Selection.Instances is not encoded.
func EncodeOutcome(out *Outcome) ([]byte, error) {
	if out == nil || out.Result == nil {
		return nil, fmt.Errorf("sim: cannot encode empty outcome")
	}
	p := outcomePayload{Result: out.Result}
	if s := out.Selection; s != nil {
		p.Extraction = &extraction{
			Templates:      s.Templates,
			CoveredInsts:   s.CoveredInsts,
			TotalInsts:     s.TotalInsts,
			CandidateCount: s.CandidateCount,
		}
	}
	return seal(p)
}

// DecodeOutcome parses an encoded outcome. A decoded outcome always has a
// non-nil Result; Selection is nil for baseline jobs and otherwise has
// Templates and the coverage counts but no Instances. It rejects what no
// encoder writes: a null template and a negative count.
func DecodeOutcome(data []byte) (*Outcome, error) {
	var p outcomePayload
	if err := open(data, &p); err != nil {
		return nil, err
	}
	if p.Result == nil {
		return nil, fmt.Errorf("sim: outcome missing result")
	}
	out := &Outcome{Result: p.Result}
	if x := p.Extraction; x != nil {
		if x.CoveredInsts < 0 || x.TotalInsts < 0 || x.CandidateCount < 0 {
			return nil, fmt.Errorf("sim: outcome extraction has a negative count")
		}
		for i, t := range x.Templates {
			if t == nil {
				return nil, fmt.Errorf("sim: outcome template %d is null", i)
			}
		}
		out.Selection = &core.Selection{
			Templates:      x.Templates,
			CoveredInsts:   x.CoveredInsts,
			TotalInsts:     x.TotalInsts,
			CandidateCount: x.CandidateCount,
		}
	}
	return out, nil
}
