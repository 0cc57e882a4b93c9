package main

import (
	"context"
	"math/rand"
	"os"
	"time"

	"minigraph/internal/serve"
	"minigraph/internal/sim"
	"minigraph/internal/store"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
)

// armsPerBinary is how many of a binary's arms the layer replay simulates
// (a seeded sample); per-arm costs are then scaled by the round's real
// simulation count.
const armsPerBinary = 2

// layerSample is everything the layer replay measured that is not a span.
type layerSample struct {
	Profiled   int64 // dynamic instructions profiled over the distinct preparations
	Records    int64 // records drained (once per captured trace)
	TraceBytes int64
	RawBytes   int64 // sampled chunk frames, raw
	FlateBytes int64 // the same chunks, DEFLATE
	Fetched    int64 // chunk frame bytes read back from the probe store
	Chunks     int   // sampled chunks
	Coverage   []float64
	Arms       []*armSample
	BaseIPC    []float64 // default baseline machine, per bench
	MgIPC      []float64 // default mini-graph machine, per bench
	Speedups   []float64
}

// layerReplay walks the plan's binaries and a seeded sample of its arms
// through every layer on one goroutine, recording spans into tr.
func layerReplay(ctx context.Context, e *env, plan layerPlan, seed int64, tr *tracer) (*layerSample, error) {
	// Workloads that run without a store never frame, store or fetch a
	// chunk or an outcome, so their replay skips those layers (st == nil).
	var st *store.Store
	if plan.Stored {
		dir, err := os.MkdirTemp(e.tmp, "layers-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w := newWalker(tr)
	ls := &layerSample{}

	// Group the plan's arms by the binary they simulate, in first-seen order.
	var keys []sim.TraceKey
	byKey := make(map[sim.TraceKey][]serve.JobSpec)
	jobOf := make(map[sim.TraceKey]sim.SimJob)
	for _, js := range plan.Arms {
		job, err := js.Resolve()
		if err != nil {
			return nil, err
		}
		k := job.Key().TraceKey()
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
			jobOf[k] = job
		}
		byKey[k] = append(byKey[k], js)
	}
	benches := make(map[string]bool)
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bin, err := w.binaryFor(jobOf[k])
		if err != nil {
			return nil, err
		}
		c, err := w.capture(ctx, bin, plan.Geometry, st)
		if err != nil {
			return nil, err
		}
		records, err := w.drain(c, plan.Geometry)
		if err != nil {
			return nil, err
		}
		ls.Records += records
		ls.TraceBytes += c.tr.SizeBytes()
		if c.probe != nil {
			ls.RawBytes += c.probe.rawBytes
			ls.FlateBytes += c.probe.flateBytes
			ls.Chunks += c.probe.chunks
		}
		if bin.sel != nil {
			ls.Coverage = append(ls.Coverage, bin.sel.Coverage())
		}
		arms := byKey[k]
		sample := rng.Perm(len(arms))
		if len(sample) > armsPerBinary {
			sample = sample[:armsPerBinary]
		}
		for _, i := range sample {
			s, err := w.simulate(ctx, c, arms[i], plan.Geometry, st)
			if err != nil {
				return nil, err
			}
			ls.Arms = append(ls.Arms, s)
		}
		if c.probe != nil {
			ls.Fetched += c.probe.fetched // after the arms: they fault chunks too
		}

		// The paper's headline pair, once per bench: the default baseline
		// machine on the original binary against the default mini-graph
		// machine on the rewritten one (caches and predictors start empty).
		if bench := k.Prepare.Bench; !benches[bench] && !k.Baseline {
			benches[bench] = true
			base, err := serve.JobSpec{Bench: bench, Baseline: true}.Resolve()
			if err != nil {
				return nil, err
			}
			prep, err := w.prepare(base.Prepare)
			if err != nil {
				return nil, err
			}
			id := tr.begin("bench.reference_pair", bench, 0, -1, -1)
			bres, err := uarch.New(base.Config, prep.prog, nil).Run(ctx)
			if err != nil {
				return nil, err
			}
			mg, err := serve.JobSpec{Bench: bench}.Resolve()
			if err != nil {
				return nil, err
			}
			var mres *uarch.Result
			if mg.Key().TraceKey() == k {
				rd := trace.NewReader(c.tr, bin.prog, 0)
				mres, err = uarch.NewWithSource(mg.Config, bin.mgt(mg.Config), rd).Run(ctx)
				if err != nil {
					return nil, err
				}
			}
			tr.end(id)
			ls.BaseIPC = append(ls.BaseIPC, bres.WorkIPC())
			if mres != nil {
				ls.MgIPC = append(ls.MgIPC, mres.WorkIPC())
				ls.Speedups = append(ls.Speedups, uarch.Speedup(bres, mres))
			}
		}
	}
	for _, p := range w.preps {
		ls.Profiled += p.prof.DynInsts
	}
	return ls, nil
}

// layerMetrics turns spans, the layer sample and round 0's counters into
// the per-layer metric values. Times ending in _s are estimated CPU-seconds
// of the layer in one round: mean cost per operation in the layer replay
// times the number of such operations the round's engines counted.
func layerMetrics(e *env, plan layerPlan, r *roundResult, ls *layerSample, spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := sumByName(spans, self)
	count := make(map[string]int)
	durs := make(map[string][]float64) // full durations in microseconds, by span name
	for _, s := range spans {
		count[s.Name]++
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/float64(time.Microsecond))
	}
	sec := func(name string) float64 { return byName[name].Seconds() }
	per := func(name string) float64 { return ratio(sec(name), float64(count[name])) } // mean self seconds per span

	es, ss := r.Counts.Engine, r.Counts.Store
	sims := float64(es.PipelineSims())
	captures := float64(es.TraceCaptures)
	builds := float64(es.TraceCaptures + es.TraceStoreHits + es.TracePeerHits) // every trace source path extracts and rewrites first
	prepares := float64(es.PrepareRuns)
	sampledArms := float64(len(ls.Arms))
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }

	v := make(map[string]float64)
	for k, x := range r.Extra {
		v[k] = x
	}

	// Front half: per preparation and per built binary.
	v["workload.build_s"] = per("workload.build") * prepares
	v["program.cfg_liveness_s"] = per("program.cfg_liveness") * prepares
	v["emu.profile_s"] = per("emu.profile") * prepares
	v["emu.profile_minst_per_s"] = ratio(float64(ls.Profiled)/1e6, sec("emu.profile"))
	v["core.extract_s"] = per("core.extract") * builds
	v["rewrite.rewrite_s"] = per("rewrite.rewrite") * builds
	v["core.mgt_build_s"] = per("core.mgt_build") * (sims + captures)
	v["core.coverage_mean"] = mean(ls.Coverage)

	// Capture and the chunk codec.
	capturedMB := mb(es.TraceBytes) * ratio(captures, builds)
	v["trace.capture_s"] = per("trace.capture") * captures
	v["trace.capture_mrec_per_s"] = ratio(float64(ls.Records)/1e6, sec("trace.capture"))
	v["trace.trace_mb"] = mb(ls.TraceBytes)
	chunkPuts, faults := 0.0, float64(es.TraceChunkFaults)
	if plan.Stored {
		chunkPuts = ratio(capturedMB, mb(ls.RawBytes)) * float64(ls.Chunks)
	}
	v["trace.encode_chunk_raw_s"] = per("trace.encode_chunk_raw") * chunkPuts
	v["trace.encode_chunk_flate_s"] = per("trace.encode_chunk_flate") * chunkPuts // what DEFLATE would cost; off as shipped, so not in sim.work_s
	v["trace.flate_ratio"] = ratio(float64(ls.FlateBytes), float64(ls.RawBytes))
	v["trace.decode_chunk_s"] = per("trace.decode_chunk") * faults
	v["trace.fault_s"] = ratio(sumDur(spans, "trace.fault").Seconds(), float64(count["trace.fault"])) * faults // store get + decode + verification
	v["trace.chunk_faults"] = float64(es.TraceChunkFaults)
	v["trace.chunk_evictions"] = float64(es.TraceChunkEvictions)
	v["trace.window_peak_bytes"] = float64(es.TraceChunkWindowPeakBytes)

	// Replay: decode alone, then the pipeline with decode subtracted.
	drainPerRecord := ratio(sec("trace.reader_drain"), float64(ls.Records))
	var armRecords, cycles, retired, work float64
	var mallocs float64
	agg := &uarch.Result{}
	for _, a := range ls.Arms {
		res := a.Result
		armRecords += float64(res.FetchedRecords)
		cycles += float64(res.Cycles)
		retired += float64(res.Retired)
		work += float64(res.RetiredWork)
		mallocs += float64(a.Mallocs)
		addInt64s(agg, res)
	}
	drainInRuns := drainPerRecord * armRecords
	runSelf := sec("uarch.run") - drainInRuns
	v["trace.reader_drain_s"] = ratio(drainInRuns, sampledArms) * sims
	v["trace.decode_mrec_per_s"] = ratio(float64(ls.Records)/1e6, sec("trace.reader_drain"))
	v["trace.gang_decode_mrec_per_s"] = ratio(2*float64(ls.Records)/1e6, sec("trace.gang_drain"))
	v["uarch.run_s"] = ratio(runSelf, sampledArms) * sims
	v["uarch.mcycles_per_s"] = ratio(cycles/1e6, runSelf)
	v["uarch.minst_per_s"] = ratio(retired/1e6, runSelf)
	v["uarch.allocs_per_run"] = ratio(mallocs, sampledArms)

	// Simulated statistics of the sampled arms: exact, not timings.
	v["uarch.sim_cycles"] = cycles
	v["uarch.sim_retired_work"] = work
	v["uarch.ipc_baseline"] = mean(ls.BaseIPC)
	v["uarch.ipc_minigraph"] = mean(ls.MgIPC)
	v["uarch.speedup_geomean"] = geomean(ls.Speedups)
	v["uarch.cond_mispredict_rate"] = ratio(float64(agg.CondMispredicts), float64(agg.CondBranches))
	v["uarch.l1d_miss_rate"] = ratio(float64(agg.L1DMisses), float64(agg.Loads+agg.Stores))
	v["uarch.stall_rob"] = float64(agg.StallROB)
	v["uarch.stall_iq"] = float64(agg.StallIQ)
	v["uarch.stall_lsq"] = float64(agg.StallLSQ)
	v["uarch.stall_regs"] = float64(agg.StallRegs)
	v["uarch.violations"] = float64(agg.Violations)
	v["uarch.load_miss_replays"] = float64(agg.LoadMissReplays)
	v["uarch.mg_replays"] = float64(agg.MGReplays)

	// Outcome codec and the store.
	encodes, decodes := 0.0, float64(es.StoreHits)
	if plan.Stored {
		encodes = sims // write-through
	}
	if plan.Served {
		// A worker encodes every /v1/outcome reply, memo hit or not, and the
		// coordinator decodes it.
		encodes += float64(es.SimRuns + es.SimHits)
		decodes += float64(es.SimRuns + es.SimHits)
	}
	v["sim.encode_outcome_s"] = per("sim.encode_outcome") * encodes
	v["sim.decode_outcome_s"] = per("sim.decode_outcome") * decodes
	var outcomeBytes float64
	for _, a := range ls.Arms {
		outcomeBytes += float64(a.OutcomeLen)
	}
	v["sim.outcome_bytes"] = ratio(outcomeBytes, sampledArms)
	outcomePuts, outcomeGets, chunkGets := 0.0, float64(es.StoreHits+es.StoreMisses), 0.0
	if plan.Stored {
		outcomePuts = sims
		// Everything the store served that was not an outcome lookup: chunk
		// faults, the verification pass over a stored trace, manifests.
		if chunkGets = float64(ss.Hits+ss.Misses) - outcomeGets; chunkGets < 0 {
			chunkGets = 0
		}
	}
	v["store.put_outcome_p50_us"] = median(durs["store.put_outcome"])
	v["store.put_chunk_p50_us"] = median(durs["store.put_chunk"])
	v["store.get_outcome_p50_us"] = median(durs["store.get_outcome"])
	v["store.get_chunk_p50_us"] = median(durs["store.get_chunk"])
	v["store.put_s"] = per("store.put_outcome")*outcomePuts + per("store.put_chunk")*chunkPuts
	v["store.get_s"] = per("store.get_outcome")*outcomeGets + per("store.get_chunk")*chunkGets
	v["store.put_mb_per_s"] = ratio(mb(ls.RawBytes)+outcomeBytes/(1<<20), sec("store.put_chunk")+sec("store.put_outcome"))
	v["store.get_mb_per_s"] = ratio(mb(ls.Fetched)+outcomeBytes/(1<<20), sec("store.get_chunk")+sec("store.get_outcome"))
	v["store.bytes_on_disk"] = float64(ss.Bytes)
	v["store.entries"] = float64(ss.Entries)
	v["store.hits"] = float64(ss.Hits)
	v["store.misses"] = float64(ss.Misses)
	v["store.evictions"] = float64(ss.Evictions)
	v["store.rejected_puts"] = float64(ss.RejectedPuts)

	// The engine as a whole: work against span.
	arms := float64(es.SimRuns + es.SimHits)
	v["sim.run_wall_s"] = r.Counts.RunWall.Seconds()
	v["sim.work_s"] = v["workload.build_s"] + v["program.cfg_liveness_s"] + v["emu.profile_s"] +
		v["core.extract_s"] + v["rewrite.rewrite_s"] + v["core.mgt_build_s"] +
		v["trace.capture_s"] + v["trace.encode_chunk_raw_s"] + v["trace.decode_chunk_s"] +
		v["trace.reader_drain_s"] + v["uarch.run_s"] +
		v["sim.encode_outcome_s"] + v["sim.decode_outcome_s"] + v["store.put_s"] + v["store.get_s"]
	v["sim.span_s"] = criticalPath(spans, 0).Seconds() // the layer replay's lane: build -> capture -> replay chains
	v["sim.parallel_efficiency"] = ratio(v["sim.work_s"], r.Wall.Seconds()*float64(e.cpus))
	v["sim.allocs_per_arm"] = ratio(float64(r.Counts.Mallocs), arms)
	v["sim.alloc_mb_per_arm"] = ratio(float64(r.Counts.Bytes)/(1<<20), arms)
	if _, ok := v["sim.capture_waste"]; !ok { // figures measures its own denominator
		v["sim.capture_waste"] = ratio(captures, float64(len(distinctTraceKeys(plan.Arms))))
	}
	v["sim.pipeline_sims"] = sims
	v["sim.sim_hits"] = float64(es.SimHits)
	v["sim.prepare_runs"] = prepares
	v["sim.trace_captures"] = captures
	v["sim.trace_replay_hits"] = float64(es.TraceReplayHits)
	v["sim.trace_store_hits"] = float64(es.TraceStoreHits)
	v["sim.store_hits"] = float64(es.StoreHits)
	v["sim.store_puts"] = float64(es.StorePuts)
	v["sim.gangs_formed"] = float64(es.GangsFormed)
	v["sim.gang_arms"] = float64(es.GangArms)
	v["sim.gang_shared_records"] = float64(es.GangSharedRecords)
	v["sim.chunk_recaptures"] = float64(es.TraceChunkRecaptures)

	// The serving tier, from the middleware's spans.
	var workerHandler, hop time.Duration
	for i, s := range spans {
		switch s.Name {
		case "serve.worker_handler":
			if s.Arm != directArm {
				workerHandler += s.dur()
			}
		case "serve.client_call", "serve.coord_handler":
			// client self + coordinator self = client latency minus the time
			// some worker was busy on the request's arms.
			hop += self[i]
		}
	}
	v["serve.coord_handler_s"] = sumDur(spans, "serve.coord_handler").Seconds()
	v["serve.worker_handler_s"] = workerHandler.Seconds()
	v["serve.blob_handler_s"] = sumDur(spans, "serve.blob_handler").Seconds()
	v["serve.coord_self_s"] = sec("serve.coord_handler")
	v["serve.hop_ms_per_arm"] = ratio(hop.Seconds()*1000, float64(count["serve.client_call"]*serveArmsPerSweep))
	v["serve.trace_peer_hits"] = float64(es.TracePeerHits)
	v["serve.trace_peer_rejects"] = float64(es.TracePeerRejects)
	return v
}

func sumDur(spans []span, name string) time.Duration {
	var t time.Duration
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

func distinctTraceKeys(specs []serve.JobSpec) map[sim.TraceKey]bool {
	keys := make(map[sim.TraceKey]bool)
	for _, js := range specs {
		if job, err := js.Resolve(); err == nil {
			keys[job.Key().TraceKey()] = true
		}
	}
	return keys
}
