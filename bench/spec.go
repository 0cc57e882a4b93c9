package main

// The benchmark's contract in one place: workload names with the reason
// each exists, end-to-end metrics with their regression bounds, and the
// per-layer metrics of the traced run. BENCHMARK.json at the repository
// root mirrors these tables (TestBenchmarkJSONMatchesSpec keeps the two
// from drifting).

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// PrewarmMB is how much memory to touch before a run (see prewarm):
	// comfortably more than the workload's peak resident set.
	PrewarmMB int `json:"-"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"config_sweep", "8 mini-graph binaries x seeded machine points on one cold engine, no store: replay-many, uarch dominates, gangs form on every trace group", 1024},
	{"figures", "every experiment id on the 4-binary subset through one cold shared engine, as mgbench -exp all does: front half (profile, extract, rewrite, capture) and cross-figure memo sharing", 3072},
	{"store_stream", "4 largest traces through a fresh store with 4096-record chunks and a 2-chunk window, cold pass then fresh-engine pass: spill, chunk fault and codec path, bounded RSS", 1024},
	{"store_warm", "repeat sweeps answered entirely from a populated store by fresh engines: store.Get and outcome decode only; the bypass workload for any pipeline change", 768},
	{"serve_tier", "a closed-loop client per two cores sending 4-arm sweeps to a coordinator and 2 workers over loopback HTTP, a third worker joining half way: the only workload crossing serve", 1024},
}

// endToEndSpecs are what a user of the system sees. req_* is the latency of
// one caller-visible call: a /v1/sweep request on serve_tier, one
// Engine.Run / experiments.Run / store-backed pass elsewhere. fail_share
// (failed / attempted operations) is always 0 on a healthy tree, so it
// travels as the result's "failed" and "attempted" fields instead of as a
// bounded metric; -compare treats any increase as a regression.
//
// The bounds are set by the sandbox, not by taste: on its two shared cores
// everything CPU-bound slows by 15-30 % for tens of seconds at a time, ten
// runs of one commit spread by 3-6 % (interquartile, of the median) in a
// quiet spell and by up to 15-20 % in a busy one, and a bound has to sit
// well above that or it rejects innocent changes. The issue's 8/10/15 % are
// what a quiet machine would support.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"arms_per_s", "arms/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayerSpecs are printed by the traced run, for every workload (zero
// where the workload does not cross the layer). Every "_s" metric is
// estimated CPU-seconds of that layer in one round: the layer replay's mean
// cost per operation times the round's operation count from Engine.Stats().
var perLayerSpecs = []metricSpec{
	{Name: "workload.build_s", Unit: "s", Better: "lower"},
	{Name: "program.cfg_liveness_s", Unit: "s", Better: "lower"},
	{Name: "emu.profile_s", Unit: "s", Better: "lower"},
	{Name: "emu.profile_minst_per_s", Unit: "Minst/s", Better: "higher"},

	{Name: "core.extract_s", Unit: "s", Better: "lower"},
	{Name: "rewrite.rewrite_s", Unit: "s", Better: "lower"},
	{Name: "core.mgt_build_s", Unit: "s", Better: "lower"},
	{Name: "core.coverage_mean", Unit: "ratio", Better: "higher"},

	{Name: "trace.capture_s", Unit: "s", Better: "lower"},
	{Name: "trace.capture_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "trace.trace_mb", Unit: "MiB", Better: "lower"},

	{Name: "trace.encode_chunk_raw_s", Unit: "s", Better: "lower"},
	{Name: "trace.encode_chunk_flate_s", Unit: "s", Better: "lower"},
	{Name: "trace.flate_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.decode_chunk_s", Unit: "s", Better: "lower"},
	{Name: "trace.reader_drain_s", Unit: "s", Better: "lower"},
	{Name: "trace.decode_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "trace.gang_decode_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "trace.fault_s", Unit: "s", Better: "lower"},
	{Name: "trace.chunk_faults", Unit: "count", Better: "lower"},
	{Name: "trace.chunk_evictions", Unit: "count", Better: "lower"},
	{Name: "trace.window_peak_bytes", Unit: "bytes", Better: "lower"},

	{Name: "uarch.run_s", Unit: "s", Better: "lower"},
	{Name: "uarch.mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "uarch.minst_per_s", Unit: "Minst/s", Better: "higher"},
	{Name: "uarch.allocs_per_run", Unit: "count", Better: "lower"},

	// Simulated statistics over the layer replay's arms. They repeat
	// exactly; a host-speed change that moves one has changed the model.
	{Name: "uarch.sim_cycles", Unit: "cycles", Better: "lower"},
	{Name: "uarch.sim_retired_work", Unit: "count", Better: "higher"},
	{Name: "uarch.ipc_baseline", Unit: "ipc", Better: "higher"},
	{Name: "uarch.ipc_minigraph", Unit: "ipc", Better: "higher"},
	{Name: "uarch.speedup_geomean", Unit: "ratio", Better: "higher"},
	{Name: "uarch.cond_mispredict_rate", Unit: "ratio", Better: "lower"},
	{Name: "uarch.l1d_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "uarch.stall_rob", Unit: "cycles", Better: "lower"},
	{Name: "uarch.stall_iq", Unit: "cycles", Better: "lower"},
	{Name: "uarch.stall_lsq", Unit: "cycles", Better: "lower"},
	{Name: "uarch.stall_regs", Unit: "cycles", Better: "lower"},
	{Name: "uarch.violations", Unit: "count", Better: "lower"},
	{Name: "uarch.load_miss_replays", Unit: "count", Better: "lower"},
	{Name: "uarch.mg_replays", Unit: "count", Better: "lower"},

	{Name: "sim.run_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.work_s", Unit: "s", Better: "lower"},
	{Name: "sim.span_s", Unit: "s", Better: "lower"},
	{Name: "sim.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sim.encode_outcome_s", Unit: "s", Better: "lower"},
	{Name: "sim.decode_outcome_s", Unit: "s", Better: "lower"},
	{Name: "sim.outcome_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sim.allocs_per_arm", Unit: "count", Better: "lower"},
	{Name: "sim.alloc_mb_per_arm", Unit: "MiB", Better: "lower"},
	{Name: "sim.capture_waste", Unit: "ratio", Better: "lower"},
	{Name: "sim.pipeline_sims", Unit: "count", Better: "lower"},
	{Name: "sim.sim_hits", Unit: "count", Better: "higher"},
	{Name: "sim.prepare_runs", Unit: "count", Better: "lower"},
	{Name: "sim.trace_captures", Unit: "count", Better: "lower"},
	{Name: "sim.trace_replay_hits", Unit: "count", Better: "higher"},
	{Name: "sim.trace_store_hits", Unit: "count", Better: "higher"},
	{Name: "sim.store_hits", Unit: "count", Better: "higher"},
	{Name: "sim.store_puts", Unit: "count", Better: "lower"},
	{Name: "sim.gangs_formed", Unit: "count", Better: "higher"},
	{Name: "sim.gang_arms", Unit: "count", Better: "higher"},
	{Name: "sim.gang_shared_records", Unit: "count", Better: "higher"},
	{Name: "sim.chunk_recaptures", Unit: "count", Better: "lower"},
	{Name: "sim.pass1_arms_per_s", Unit: "arms/s", Better: "higher"},
	{Name: "sim.pass2_arms_per_s", Unit: "arms/s", Better: "higher"},

	{Name: "store.put_outcome_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.put_chunk_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.get_outcome_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.get_chunk_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.put_s", Unit: "s", Better: "lower"},
	{Name: "store.get_s", Unit: "s", Better: "lower"},
	{Name: "store.put_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "store.get_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "store.bytes_on_disk", Unit: "bytes", Better: "lower"},
	{Name: "store.entries", Unit: "count", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "store.evictions", Unit: "count", Better: "lower"},
	{Name: "store.rejected_puts", Unit: "count", Better: "lower"},

	{Name: "serve.coord_handler_s", Unit: "s", Better: "lower"},
	{Name: "serve.worker_handler_s", Unit: "s", Better: "lower"},
	{Name: "serve.blob_handler_s", Unit: "s", Better: "lower"},
	{Name: "serve.coord_self_s", Unit: "s", Better: "lower"},
	{Name: "serve.hop_ms_per_arm", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_outcome_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.bytes_in", Unit: "bytes", Better: "lower"},
	{Name: "serve.bytes_out", Unit: "bytes", Better: "lower"},
	{Name: "serve.blob_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "lower"},
	{Name: "serve.non2xx", Unit: "count", Better: "lower"},
	{Name: "serve.trace_peer_hits", Unit: "count", Better: "higher"},
	{Name: "serve.trace_peer_rejects", Unit: "count", Better: "lower"},
	{Name: "serve.recaptures_after_move", Unit: "count", Better: "lower"},
	{Name: "serve.worker_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "serve.phase_a_req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.phase_b_req_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "experiments.self_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
}

// exactRepeat lists per-layer metrics that must read identically on two
// runs of one commit at the same -seed and -cpus: simulated statistics and
// counters of deterministic work. (sim.trace_captures on figures is the
// known exception: the engine's trace LRU evicts in completion order, so
// a run may re-capture one trace more or less — see README.)
var exactRepeat = map[string]bool{
	"core.coverage_mean": true, "trace.trace_mb": true, "trace.flate_ratio": true,
	"trace.chunk_faults": true, "trace.chunk_evictions": true, "trace.window_peak_bytes": true,
	"uarch.sim_cycles": true, "uarch.sim_retired_work": true, "uarch.ipc_baseline": true,
	"uarch.ipc_minigraph": true, "uarch.speedup_geomean": true, "uarch.cond_mispredict_rate": true,
	"uarch.l1d_miss_rate": true, "uarch.stall_rob": true, "uarch.stall_iq": true,
	"uarch.stall_lsq": true, "uarch.stall_regs": true, "uarch.violations": true,
	"uarch.load_miss_replays": true, "uarch.mg_replays": true,
	"sim.outcome_bytes": true, "sim.pipeline_sims": true, "sim.sim_hits": true,
	"sim.prepare_runs": true, "sim.trace_captures": true, "sim.trace_replay_hits": true,
	"sim.trace_store_hits": true, "sim.store_hits": true, "sim.store_puts": true,
	"sim.gangs_formed": true, "sim.gang_arms": true, "sim.chunk_recaptures": true,
	"sim.capture_waste": true,
	"store.entries":     true, "store.hits": true, "store.misses": true,
	"store.evictions": true, "store.rejected_puts": true,
	"serve.requests": true, "serve.non2xx": true, "serve.trace_peer_hits": true,
	"serve.trace_peer_rejects": true, "serve.recaptures_after_move": true,
}

// findWorkload looks a workload's spec up by name.
func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}
