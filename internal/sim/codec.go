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
// core.Selection or the envelope below must bump it: persisted entries
// written under an older version then read back as misses instead of
// decoding into garbage.
//
// Version history:
//
//	1: initial encoding.
//	2: uarch.Config grew MemLatency (configurable DRAM latency).
//	3: SimKey canonicalizes Config.StreamWindow to 0 (the live stream now
//	   derives its window from the machine, so the override is not part of
//	   a simulation's identity), and TraceKey joined the key family for
//	   persisted dynamic-trace blobs.
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
const CodecVersion = 8

// envelope is the versioned wrapper around every encoded value. Payload
// stays raw so encode→decode→encode is byte-stable for any payload the
// current version accepts.
type envelope struct {
	V       int             `json:"v"`
	Payload json.RawMessage `json:"p"`
}

func seal(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{V: CodecVersion, Payload: raw})
}

func open(data []byte, payload any) error {
	var env envelope
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
	pdec := json.NewDecoder(bytes.NewReader(env.Payload))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(payload); err != nil {
		return fmt.Errorf("sim: payload: %w", err)
	}
	if pdec.More() {
		return fmt.Errorf("sim: trailing data after payload")
	}
	return nil
}

// EncodePrepareKey renders key in the canonical versioned JSON encoding.
// The encoding is deterministic: equal keys encode to equal bytes, so the
// bytes are usable as a content address.
func EncodePrepareKey(key PrepareKey) ([]byte, error) { return seal(key) }

// DecodePrepareKey parses a canonical PrepareKey encoding. It rejects
// version mismatches, unknown fields and trailing garbage.
func DecodePrepareKey(data []byte) (PrepareKey, error) {
	var key PrepareKey
	err := open(data, &key)
	return key, err
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

// DecodeTraceChunkKey parses a canonical trace-chunk key encoding. It
// rejects version mismatches, unknown fields, wrong kinds, negative
// indices and trailing garbage.
func DecodeTraceChunkKey(data []byte) (TraceKey, int64, error) {
	var p traceChunkKeyPayload
	if err := open(data, &p); err != nil {
		return TraceKey{}, 0, err
	}
	if p.Kind != "trace-chunk" {
		return TraceKey{}, 0, fmt.Errorf("sim: key kind %q, want \"trace-chunk\"", p.Kind)
	}
	if p.Chunk < 0 {
		return TraceKey{}, 0, fmt.Errorf("sim: negative chunk index %d", p.Chunk)
	}
	return p.Key, p.Chunk, nil
}

// outcomePayload is the persisted form of an Outcome.
type outcomePayload struct {
	Result    *uarch.Result   `json:"result"`
	Selection *core.Selection `json:"selection,omitempty"`
}

// EncodeOutcome renders a simulation outcome in the versioned JSON
// encoding used by the persistent result store.
func EncodeOutcome(out *Outcome) ([]byte, error) {
	if out == nil || out.Result == nil {
		return nil, fmt.Errorf("sim: cannot encode empty outcome")
	}
	return seal(outcomePayload{Result: out.Result, Selection: out.Selection})
}

// DecodeOutcome parses an encoded outcome. A decoded outcome always has a
// non-nil Result; Selection is nil for baseline jobs.
func DecodeOutcome(data []byte) (*Outcome, error) {
	var p outcomePayload
	if err := open(data, &p); err != nil {
		return nil, err
	}
	if p.Result == nil {
		return nil, fmt.Errorf("sim: outcome missing result")
	}
	return &Outcome{Result: p.Result, Selection: p.Selection}, nil
}
