package main

import (
	"fmt"
	"path/filepath"
)

// tracedMinPasses is the least number of passes a traced run records.
const tracedMinPasses = 2

// runTraced is the --trace 1 run. A third of the time goes to reference
// passes with tracing off — the counts per pass and the base for the trace
// overhead come from those — and the rest to traced passes, where every op
// is a root span around the real call followed by replays of the layer
// calls on its path. The workload's probe and the verify phase follow. No
// end-to-end metric comes from this run.
func runTraced(cfg config, w workload, sys *system, in *inputs, p *plan, heapLive uint64, golden map[string]digest, res *result) (*passes, error) {
	led := newLedger(sys)
	defer led.close()
	for _, ops := range p.clients {
		for i := range ops {
			// By value: a frames pass reorders the ops in place.
			if kind, frame := ops[i].kind, ops[i].frame; frame != nil {
				ops[i].replay = func(tr *tracer) { led.replayFrameOp(tr, kind, frame()) }
			}
		}
	}

	before := readCounters(sys)
	ref := runPasses(p, cfg.seconds/3, 1, nil)
	after := readCounters(sys)
	rec := newRecorder()
	traced := runPasses(p, cfg.seconds*2/3, tracedMinPasses, rec)

	v := map[string]float64{}
	ledgerMetrics(rec.spans, v)
	for _, n := range led.queryBytes {
		v["core.query_bytes"] += float64(n)
	}
	for _, n := range led.jsonBytes {
		v["sparql.json_bytes_out"] += float64(n)
	}
	for _, s := range rec.spans {
		if s.Name == spanCSVStream && s.dur() > 0 {
			v["dataframe.csv_stream_mb_per_s"] = float64(led.csvBytes) / 1e6 / (float64(s.dur()) / 1e9)
		}
	}
	v["dataframe.csv_peak_buffer_bytes"] = float64(led.csvPeak)
	cov := coverage(rec.spans)
	v["bench.attribution_coverage"] = cov
	if cov < coverageLow || cov > coverageHigh {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"attribution coverage %.3f is outside %.2f–%.2f: the layer ledger does not close on %s", cov, coverageLow, coverageHigh, w.name))
	}
	// Op time per pass with tracing on over op time per pass with it off.
	// The replays run outside the ops' root spans, so this is what recording
	// and the replays' garbage cost the real calls.
	v["bench.trace_overhead"] = (sum(traced.all) / float64(traced.n)) / (sum(ref.all) / float64(ref.n))

	passes := float64(ref.n)
	v["sparql.evaluations"] = float64(after.evals-before.evals) / passes
	v["sparql.rows_out"] = float64(ref.rows) / passes
	v["sparql.wcoj_segments"] = float64(after.wcojSegments-before.wcojSegments) / passes
	v["sparql.wcoj_seeks"] = float64(after.wcojSeeks-before.wcojSeeks) / passes
	v["sparql.wcoj_fallbacks"] = float64(after.wcojFallbacks-before.wcojFallbacks) / passes
	hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
	if hits+misses > 0 {
		v["sparql.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	} else {
		v["sparql.cache_hit_ratio"] = 0
	}
	v["sparql.cache_evictions"] = float64(after.cacheEvictions - before.cacheEvictions)
	v["server.shed"] = (after.shed - before.shed) / passes
	v["server.admitted"] = (after.admitted - before.admitted) / passes
	v["server.requests_2xx"] = (after.requests2xx - before.requests2xx) / passes
	v["client.round_trips"] = float64(after.roundTrips-before.roundTrips) / passes
	v["client.retries"] = float64(ref.retries) / passes
	v["store.version_bumps"] = float64(after.version-before.version) / passes
	v["runtime.gc_cycles"] = float64(ref.cost.gcCycles) / passes
	v["runtime.gc_pause_ms"] = float64(ref.cost.gcPauseNs) / 1e6 / passes

	v["store.triples"] = float64(sys.st.Len())
	v["store.heap_bytes_per_triple"] = float64(heapLive) / float64(sys.st.Len())
	tombstones := 0
	for _, uri := range sys.st.GraphURIs() {
		tombstones += sys.st.Graph(uri).Tombstones()
	}
	v["store.tombstones_end"] = float64(tombstones)
	storeProbe(sys.st, cfg.seed, v)
	for name, secs := range sys.setupLayers {
		v[name] = secs
	}
	v["snapshot.write_s"] = in.snapshotWriteS
	v["snapshot.bytes_per_triple"] = float64(in.snapshotBytes) / float64(in.triples)
	if w.probe != nil {
		if err := w.probe(in, v); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}

	failed := ref.failed + traced.failed
	if after.shed != before.shed {
		failed += int(after.shed - before.shed)
	}
	verdict := finish(w, sys, in, p, golden, true, ref.ops+traced.ops, failed, res)
	v["core.rdfframes_over_expert"] = ratioGeomean(verdict.rdfMs, verdict.expertMs)
	v["core.naive_over_rdfframes"] = ratioGeomean(verdict.naiveMs, verdict.rdfMs)

	var err error
	if res.Metrics, err = layerReport(v); err != nil {
		return nil, err
	}
	if cfg.out != "" {
		if err := writeTrace(filepath.Join(cfg.out, "trace-"+w.name+".json"), w.name, rec.spans); err != nil {
			return nil, err
		}
	}
	return traced, nil
}
