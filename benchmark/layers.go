package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rdfframes/internal/datagen"
	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// layerMetrics names every per-layer metric with its unit, in report order.
// A span timing is ms per one op of each of the workload's kinds: the sum
// over op kinds of the kind's median span duration, which on the frames
// workloads is a pass of the 20 frame calls. Counts are per pass of the
// workload's own ops. A workload measures the layers its own path crosses
// and reports 0 for the others.
var layerMetrics = []struct{ name, unit string }{
	{"core.compile_ms", "ms"},
	{"core.query_bytes", "B"},
	{"core.rdfframes_over_expert", "ratio"},
	{"core.naive_over_rdfframes", "ratio"},
	{"sparql.parse_ms", "ms"},
	{"sparql.estimate_ms", "ms"},
	{"sparql.do_ms", "ms"},
	{"sparql.exec_self_ms", "ms"},
	{"sparql.encode_json_ms", "ms"},
	{"sparql.json_bytes_out", "B"},
	{"sparql.decode_json_ms", "ms"},
	{"sparql.serve_hit_ms", "ms"},
	{"sparql.cache_hit_ratio", "ratio"},
	{"sparql.cache_evictions", "count"},
	{"sparql.evaluations", "count"},
	{"sparql.rows_out", "count"},
	{"sparql.wcoj_segments", "count"},
	{"sparql.wcoj_seeks", "count"},
	{"sparql.wcoj_fallbacks", "count"},
	{"sparql.update_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.shed", "count"},
	{"server.admitted", "count"},
	{"server.requests_2xx", "count"},
	{"client.select_ms", "ms"},
	{"client.http_self_ms", "ms"},
	{"client.round_trips", "count"},
	{"client.retries", "count"},
	{"client.update_ms", "ms"},
	{"dataframe.build_ms", "ms"},
	{"dataframe.csv_stream_mb_per_s", "MB/s"},
	{"dataframe.csv_peak_buffer_bytes", "B"},
	{"rdf.parse_nt_mb_per_s", "MB/s"},
	{"store.load_nt_s", "s"},
	{"snapshot.read_s", "s"},
	{"snapshot.write_s", "s"},
	{"snapshot.bytes_per_triple", "B"},
	{"store.heap_bytes_per_triple", "B"},
	{"store.triples", "count"},
	{"store.match_ns_per_triple", "ns"},
	{"store.cardinality_ns", "ns"},
	{"store.apply_batch_ms", "ms"},
	{"store.version_bumps", "count"},
	{"store.tombstones_end", "count"},
	{"store.compact_ms", "ms"},
	{"store.wal_append_ms", "ms"},
	{"store.wal_bytes_per_triple", "B"},
	{"store.wal_replay_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.attribution_coverage", "ratio"},
}

// Coverage outside this band means the ledger does not close.
const (
	coverageLow  = 0.85
	coverageHigh = 1.15
)

func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// counters is one reading of the counts the product already exposes.
type counters struct {
	evals, wcojSegments, wcojSeeks, wcojFallbacks uint64
	cacheHits, cacheMisses, cacheEvictions        uint64
	version                                       uint64
	shed, admitted, requests2xx                   float64
	roundTrips                                    int64
}

func readCounters(s *system) counters {
	var c counters
	c.evals = s.eng.Evaluations()
	c.wcojSegments, c.wcojSeeks, _, c.wcojFallbacks = s.eng.WCOJStats()
	cs := s.eng.CacheStats()
	c.cacheHits, c.cacheMisses, c.cacheEvictions = cs.Results.Hits, cs.Results.Misses, cs.Results.Evictions
	c.version = s.st.Version()
	if s.srv != nil {
		adm := s.srv.AdmissionStats()
		c.admitted = float64(adm.Admitted)
		for _, n := range adm.Shed {
			c.shed += float64(n)
		}
		s.reg.Each(func(name string, _ obs.MetricType, v float64) {
			if name == `rdfframes_http_requests_total{code="200"}` {
				c.requests2xx = v
			}
		})
		c.roundTrips = s.transport.n.Load()
	}
	return c
}

// parseProbe times the N-Triples parser alone on the run's dumps: the part
// of frames_paper's ingest that is not index building.
func parseProbe(in *inputs, out map[string]float64) error {
	start := time.Now()
	for _, path := range in.dumps {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = rdf.ParseNTriplesParallelAll(f, loadWorkers())
		f.Close()
		if err != nil {
			return err
		}
	}
	out["rdf.parse_nt_mb_per_s"] = float64(in.ntBytes) / 1e6 / time.Since(start).Seconds()
	return nil
}

// storeProbeTriples is the size of the seeded probe set of storeProbe.
const storeProbeTriples = 512

// storeProbe times index access below the engine: for a seeded sample of
// stored triples, the three access paths a bound pattern takes (subject,
// predicate+object, subject+predicate).
func storeProbe(st *store.Store, seed int64, out map[string]float64) {
	st.RLock()
	defer st.RUnlock()
	all := st.Graph(datagen.DBpediaURI).Triples()
	rng := rand.New(rand.NewSource(seed))
	var pats []store.IDTriple
	for i := 0; i < storeProbeTriples; i++ {
		t := all[rng.Intn(len(all))]
		pats = append(pats, store.IDTriple{S: t.S}, store.IDTriple{P: t.P, O: t.O}, store.IDTriple{S: t.S, P: t.P})
	}
	matched := 0
	start := time.Now()
	for _, p := range pats {
		st.MatchAny(nil, p, func(store.IDTriple) bool { matched++; return true })
	}
	out["store.match_ns_per_triple"] = float64(time.Since(start).Nanoseconds()) / float64(matched)
	start = time.Now()
	for _, p := range pats {
		_ = st.Cardinality(nil, p)
	}
	out["store.cardinality_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(pats))
}

// writeProbeBatches is the number of batches each step of writeProbe times.
const writeProbeBatches = 8

// writeProbe times the write path below the HTTP client on a scratch copy
// of refresh_rw's state, with the refresh batches: Engine.Update in-process,
// and the two calls under it, WAL.Append (fsync included) and
// Store.ApplyBatch. Each step deletes what the previous one inserted.
func writeProbe(in *inputs, out map[string]float64) error {
	s, err := setupRecover(in)
	if err != nil {
		return err
	}
	defer s.close()
	ctx := context.Background()
	var engineMs, applyMs, appendMs []float64
	for b := 0; b < writeProbeBatches; b++ {
		batch := refreshFirstBatch + b
		for _, insert := range []bool{true, false} {
			start := time.Now()
			if _, err := s.eng.Update(ctx, refreshUpdate(batch, in.movies, insert), ""); err != nil {
				return err
			}
			engineMs = append(engineMs, sinceMs(start))
		}
		for _, insert := range []bool{true, false} {
			start := time.Now()
			if _, err := s.st.ApplyBatch(refreshOps(batch, in.movies, insert)); err != nil {
				return err
			}
			applyMs = append(applyMs, sinceMs(start))
		}
	}
	out["sparql.update_ms"] = median(engineMs)
	out["store.apply_batch_ms"] = median(applyMs)

	start := time.Now()
	s.st.CompactAll()
	out["store.compact_ms"] = sinceMs(start)

	wal, _, err := store.OpenWAL(filepath.Join(in.dir, "probe-append.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	for b := 0; b < writeProbeBatches; b++ {
		start := time.Now()
		if _, err := wal.Append("", refreshOps(b, in.movies, true)); err != nil {
			return err
		}
		appendMs = append(appendMs, sinceMs(start))
	}
	out["store.wal_append_ms"] = median(appendMs)
	size, err := wal.Size()
	if err != nil {
		return err
	}
	out["store.wal_bytes_per_triple"] = float64(size) / float64(writeProbeBatches*refreshBatchTriples)
	return nil
}

// ledgerMetrics turns the spans of the traced ops into the per-layer
// timings; a span name no op recorded comes out 0.
func ledgerMetrics(spans []span, out map[string]float64) {
	// Duration samples per (span name, op kind).
	rootKind := map[int]string{}
	for _, s := range spans {
		if s.Parent < 0 {
			rootKind[s.Op] = s.Kind
		}
	}
	samples := map[string]map[string][]float64{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		byKind := samples[s.Name]
		if byKind == nil {
			byKind = map[string][]float64{}
			samples[s.Name] = byKind
		}
		kind := rootKind[s.Op]
		byKind[kind] = append(byKind[kind], float64(s.dur())/1e6)
	}
	// perPass is the sum over kinds of the kind's median duration.
	perPass := func(name string) float64 {
		sum := 0.0
		for _, xs := range samples[name] {
			sum += median(xs)
		}
		return sum
	}
	out["core.compile_ms"] = perPass(spanCompile)
	out["sparql.parse_ms"] = perPass(spanParse)
	out["sparql.estimate_ms"] = perPass(spanEstimate)
	out["sparql.do_ms"] = perPass(spanDo)
	out["sparql.exec_self_ms"] = perPass(spanDo) - perPass(spanEstimate)
	out["sparql.encode_json_ms"] = perPass(spanEncode)
	out["sparql.decode_json_ms"] = perPass(spanDecode)
	out["sparql.serve_hit_ms"] = perPass(spanServeHit)
	out["server.handler_ms"] = perPass(spanHandler)
	out["client.select_ms"] = perPass(spanSelect)
	out["client.http_self_ms"] = perPass(spanSelect) - perPass(spanHandler) - perPass(spanDecode)
	out["client.update_ms"] = perPass(spanUpdate)
	out["dataframe.build_ms"] = perPass(spanBuild)
}

// coverage is the share of the ops' wall time that the self times of their
// declared layer spans account for.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var opNs, layerNs int64
	for _, s := range spans {
		if s.Parent < 0 {
			opNs += s.dur()
		} else {
			layerNs += self[s.ID]
		}
	}
	if opNs == 0 {
		return 0
	}
	return float64(layerNs) / float64(opNs)
}

// ratioGeomean is the geometric mean over tasks of num[task]/den[task].
func ratioGeomean(num, den map[string]float64) float64 {
	var ratios []float64
	for id, d := range den {
		if d > 0 && num[id] > 0 {
			ratios = append(ratios, num[id]/d)
		}
	}
	return geomean(ratios)
}

// layerReport assembles the metric list of a traced run: every name in
// layerMetrics, 0 for a layer the workload does not exercise. A value under
// a name that is not listed is a bug in the harness.
func layerReport(values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which is not a per-layer metric", name)
		}
	}
	return out, nil
}
