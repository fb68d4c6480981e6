// Command benchcheck diffs a fresh benchrunner report against the
// committed BENCH_sparql.json shape-wise, so CI catches structural
// regressions in the benchmark harness without asserting on timings
// (the bench boxes are shared single cores; wall-clock deltas are noise).
//
//	benchcheck -committed BENCH_sparql.json -fresh /tmp/bench-smoke.json
//	benchcheck -fresh out.json -strict -sections 5,serving,parallel,planner
//
// Structural checks (exit 1 on failure):
//   - both reports parse and the fresh one has measurements,
//   - every figure the two reports share covers the committed
//     (task, approach) pairs,
//   - no fresh measurement has an empty timing (zero seconds without an
//     error) and none reports an error,
//   - result byte-identity flags recorded by the serving, parallel,
//     planner, wcoj, mutations, and features sections are all true (a false
//     one is a determinism, planner-correctness, or crash-recovery
//     regression),
//   - the features section's streaming export stayed within its bounded
//     buffer (an unbounded peak means the export materialized the frame),
//   - the traffic section upholds the load-shedding contract: Retry-After
//     on every shed, zero unexpected errors or identity violations, and a
//     stampede coalesced into exactly one evaluation,
//   - sections present in the fresh report are non-degenerate.
//
// -strict additionally requires every section named by -sections (figure
// numbers and/or "storage", "serving", "parallel", "planner", "traffic",
// "wcoj", "mutations", "features") to be present in the fresh report — a
// missing section means the harness silently dropped a workload and is a
// hard failure.
//
// -metrics switches benchcheck into a second mode: instead of diffing
// reports it validates a scraped Prometheus /metrics text file (exit 1 on
// failure):
//
//	benchcheck -metrics /tmp/metrics.prom
//
// The file must parse as text exposition format, contain every required
// rdfframes metric family (engine, serving layer, and Go runtime), and
// have no NaN or negative cumulative values — the invariants a scrape of a
// healthy server upholds by construction, so a violation means the
// observability wiring regressed.
//
// Timing deltas between the reports are always printed as warnings only:
// the bench boxes are shared single cores, and wall-clock noise is not a
// regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"rdfframes/internal/bench"
	"rdfframes/internal/obs"
)

func main() {
	committedPath := flag.String("committed", "BENCH_sparql.json", "committed reference report")
	freshPath := flag.String("fresh", "", "freshly generated report to check")
	warnRatio := flag.Float64("warn-ratio", 3, "warn when a shared measurement's timing ratio exceeds this (either direction)")
	strict := flag.Bool("strict", false, "missing -sections entries become hard failures")
	sections := flag.String("sections", "", "comma-separated sections the fresh report must contain under -strict (e.g. 5,serving,parallel,planner,wcoj,mutations)")
	metricsPath := flag.String("metrics", "", "validate a scraped Prometheus /metrics text file instead of diffing reports")
	flag.Parse()

	if *metricsPath != "" {
		problems, err := checkMetricsFile(*metricsPath)
		if err != nil {
			fail("reading metrics file: %v", err)
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Println("benchcheck: metrics scrape is structurally sound")
		return
	}

	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -fresh is required")
		os.Exit(2)
	}

	committed, err := readReport(*committedPath)
	if err != nil {
		fail("reading committed report: %v", err)
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		fail("reading fresh report: %v", err)
	}

	problems := check(committed, fresh, *warnRatio)
	if *strict {
		problems = append(problems, checkSections(fresh, *sections)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: fresh report is structurally sound")
}

// checkSections enforces -strict section presence: every named section must
// exist (and figures must have at least one measurement) in the fresh
// report.
func checkSections(fresh *bench.JSONReport, sections string) []string {
	if sections == "" {
		return nil
	}
	figures := map[string]bool{}
	for _, m := range fresh.Measurements {
		figures[m.Figure] = true
	}
	var problems []string
	for _, s := range strings.Split(sections, ",") {
		s = strings.TrimSpace(s)
		missing := false
		switch s {
		case "":
			continue
		case "storage":
			missing = fresh.Storage == nil
		case "serving":
			missing = fresh.Serving == nil
		case "parallel":
			missing = fresh.Parallel == nil
		case "planner":
			missing = fresh.Planner == nil
		case "traffic":
			missing = fresh.Traffic == nil
		case "wcoj":
			missing = fresh.Wcoj == nil
		case "mutations":
			missing = fresh.Mutations == nil
		case "features":
			missing = fresh.Features == nil
		default:
			missing = !figures[s]
		}
		if missing {
			problems = append(problems, fmt.Sprintf("required section %q missing from fresh report", s))
		}
	}
	return problems
}

// requiredMetricFamilies is the contract a scrape of a healthy server must
// cover: the engine's counters and gauges, the serving-layer instruments,
// and the Go runtime gauges. All are registered unconditionally by
// EnableMetrics/RegisterRuntimeMetrics, so a missing family means the
// wiring regressed, not that the feature was off.
var requiredMetricFamilies = []string{
	// engine
	"rdfframes_cache_hits_total",
	"rdfframes_cache_misses_total",
	"rdfframes_cache_evictions_total",
	"rdfframes_cache_entries",
	"rdfframes_cache_cost",
	"rdfframes_cache_budget",
	"rdfframes_cache_enabled",
	"rdfframes_singleflight_total",
	"rdfframes_evaluations_total",
	"rdfframes_wcoj_segments_total",
	"rdfframes_wcoj_seeks_total",
	"rdfframes_wcoj_backtracks_total",
	"rdfframes_wcoj_fallbacks_total",
	"rdfframes_store_version",
	"rdfframes_stats_epoch",
	"rdfframes_store_triples",
	"rdfframes_store_base_triples",
	"rdfframes_store_delta_triples",
	"rdfframes_store_tombstones",
	"rdfframes_store_index_bytes",
	"rdfframes_store_graphs",
	"rdfframes_store_dict_terms",
	"rdfframes_store_dict_bytes",
	"rdfframes_parallelism",
	// serving layer
	"rdfframes_query_seconds",
	"rdfframes_query_task_seconds",
	"rdfframes_http_requests_total",
	"rdfframes_traces_total",
	"rdfframes_admission_shed_total",
	"rdfframes_admitted_total",
	"rdfframes_in_flight",
	"rdfframes_draining",
	"rdfframes_max_in_flight",
	"rdfframes_max_query_cost",
	"rdfframes_slowlog_entries_total",
	"rdfframes_slowlog_dropped_total",
	// runtime
	"rdfframes_goroutines",
	"rdfframes_gomaxprocs",
	"rdfframes_heap_alloc_bytes",
	"rdfframes_heap_sys_bytes",
	"rdfframes_heap_objects",
	"rdfframes_gc_runs_total",
	"rdfframes_gc_pause_seconds_total",
	"rdfframes_alloc_bytes_total",
}

// checkMetricsFile validates a scraped /metrics text file: it must parse,
// cover every required family, and contain no NaN, infinite, or negative
// cumulative values.
func checkMetricsFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, types, err := obs.ParseText(f)
	if err != nil {
		return nil, err
	}

	var problems []string
	if len(samples) == 0 {
		problems = append(problems, "metrics file has no samples")
	}
	for _, fam := range requiredMetricFamilies {
		if _, ok := types[fam]; !ok {
			problems = append(problems, fmt.Sprintf("required metric family %s missing", fam))
		}
	}
	for name, v := range samples {
		if math.IsNaN(v) {
			problems = append(problems, fmt.Sprintf("%s is NaN", name))
			continue
		}
		if math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("%s is infinite", name))
			continue
		}
		switch types[obs.FamilyOf(name)] {
		case obs.TypeCounter, obs.TypeHistogram:
			if v < 0 {
				problems = append(problems, fmt.Sprintf("cumulative series %s is negative (%g)", name, v))
			}
		}
	}
	sort.Strings(problems) // map iteration order must not leak into output
	return problems, nil
}

func readReport(path string) (*bench.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.JSONReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// check returns the structural problems of fresh relative to committed.
func check(committed, fresh *bench.JSONReport, warnRatio float64) []string {
	var problems []string
	if len(fresh.Measurements) == 0 {
		problems = append(problems, "fresh report has no measurements")
	}

	type key struct{ figure, task, approach string }
	freshSeconds := map[key]float64{}
	freshFigures := map[string]bool{}
	for _, m := range fresh.Measurements {
		k := key{m.Figure, m.Task, m.Approach}
		freshSeconds[k] = m.Seconds
		freshFigures[m.Figure] = true
		if m.Error != "" {
			problems = append(problems, fmt.Sprintf("figure %s %s (%s) errored: %s", m.Figure, m.Task, m.Approach, m.Error))
		} else if m.Seconds <= 0 {
			problems = append(problems, fmt.Sprintf("figure %s %s (%s) has an empty timing", m.Figure, m.Task, m.Approach))
		}
	}
	// Coverage: every (task, approach) the committed report has for a
	// figure the fresh report also ran must be present — a missing query
	// means the harness silently dropped work.
	for _, m := range committed.Measurements {
		if !freshFigures[m.Figure] {
			continue
		}
		k := key{m.Figure, m.Task, m.Approach}
		secs, ok := freshSeconds[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("figure %s lost %s (%s)", m.Figure, m.Task, m.Approach))
			continue
		}
		if m.Seconds > 0 && secs > 0 {
			ratio := secs / m.Seconds
			if ratio > warnRatio || ratio < 1/warnRatio {
				fmt.Fprintf(os.Stderr, "benchcheck: warn: figure %s %s (%s): %.4fs vs committed %.4fs (%.1fx) — timing only, not failing\n",
					m.Figure, m.Task, m.Approach, secs, m.Seconds, ratio)
			}
		}
	}

	if committed.Serving != nil && fresh.Serving != nil {
		if len(fresh.Serving.Queries) < len(committed.Serving.Queries) {
			problems = append(problems, fmt.Sprintf("serving section shrank: %d queries, committed has %d",
				len(fresh.Serving.Queries), len(committed.Serving.Queries)))
		}
		for _, q := range fresh.Serving.Queries {
			if !q.ByteIdentical {
				problems = append(problems, fmt.Sprintf("serving %s: cached response not byte-identical", q.Task))
			}
			if q.ColdSeconds <= 0 || q.WarmSeconds <= 0 {
				problems = append(problems, fmt.Sprintf("serving %s has an empty timing", q.Task))
			}
		}
	}
	if fresh.Parallel != nil {
		if len(fresh.Parallel.Queries) == 0 {
			problems = append(problems, "parallel section has no queries")
		}
		for _, q := range fresh.Parallel.Queries {
			if !q.ByteIdentical {
				problems = append(problems, fmt.Sprintf("parallel %s: parallel result not byte-identical to serial", q.Task))
			}
			if q.SerialSeconds <= 0 || q.ParallelSeconds <= 0 {
				problems = append(problems, fmt.Sprintf("parallel %s has an empty timing", q.Task))
			}
		}
	}
	if fresh.Planner != nil {
		if len(fresh.Planner.Queries) == 0 {
			problems = append(problems, "planner section has no queries")
		}
		for _, q := range fresh.Planner.Queries {
			if !q.ByteIdentical {
				problems = append(problems, fmt.Sprintf("planner %s: optimized result not byte-identical to heuristic", q.Task))
			}
			if q.HeuristicSeconds <= 0 || q.OptimizedSeconds <= 0 {
				problems = append(problems, fmt.Sprintf("planner %s has an empty timing", q.Task))
			}
		}
	}
	if fresh.Wcoj != nil {
		if len(fresh.Wcoj.Queries) == 0 {
			problems = append(problems, "wcoj section has no queries")
		}
		if fresh.Wcoj.ChosenQueries == 0 {
			problems = append(problems, "wcoj: cost model chose the operator for no query — the section measures nothing")
		}
		for _, q := range fresh.Wcoj.Queries {
			if !q.ByteIdentical {
				problems = append(problems, fmt.Sprintf("wcoj %s: result not byte-identical to the binary pipeline", q.Task))
			}
			if q.BinarySeconds <= 0 || q.WCOJSeconds <= 0 {
				problems = append(problems, fmt.Sprintf("wcoj %s has an empty timing", q.Task))
			}
			if q.Chosen && q.Seeks == 0 {
				problems = append(problems, fmt.Sprintf("wcoj %s: chosen but recorded no iterator seeks", q.Task))
			}
		}
	}
	if f := fresh.Features; f != nil {
		if len(f.PathQueries) == 0 {
			problems = append(problems, "features section has no path queries")
		}
		for _, q := range f.PathQueries {
			if !q.ByteIdentical {
				problems = append(problems, fmt.Sprintf("features %s: parallel path result not byte-identical to serial", q.Task))
			}
			if q.SerialSeconds <= 0 || q.ParallelSeconds <= 0 {
				problems = append(problems, fmt.Sprintf("features %s has an empty timing", q.Task))
			}
			if q.Rows == 0 {
				problems = append(problems, fmt.Sprintf("features %s returned no rows — the path matched nothing", q.Task))
			}
		}
		if f.FeatureNodes == 0 {
			problems = append(problems, "features: no nodes featurized — the extraction measured nothing")
		}
		if f.FeatureSeconds <= 0 || f.ExportSeconds <= 0 {
			problems = append(problems, "features section has an empty timing")
		}
		if f.ExportRows == 0 || f.ExportBytes == 0 {
			problems = append(problems, "features: export streamed nothing")
		}
		if !f.ExportBounded {
			problems = append(problems, fmt.Sprintf("features: export peak buffer %d exceeded the bound for %d-byte chunks — the stream materialized",
				f.ExportPeakBufferBytes, f.ExportChunkBytes))
		}
	}
	if m := fresh.Mutations; m != nil {
		if m.Inserted == 0 || m.Deleted == 0 {
			problems = append(problems, fmt.Sprintf("mutations: workload changed nothing (%d inserted, %d deleted)", m.Inserted, m.Deleted))
		}
		if m.InsertSeconds <= 0 || m.DeleteSeconds <= 0 || m.RecoverSeconds <= 0 {
			problems = append(problems, "mutations section has an empty timing")
		}
		if m.ReplayBatches == 0 {
			problems = append(problems, "mutations: recovery replayed no WAL batches — the crash path measured nothing")
		}
		if !m.ByteIdentical {
			problems = append(problems, "mutations: figure-5 results after crash recovery not byte-identical")
		}
	}
	if committed.Storage != nil && fresh.Storage != nil {
		if fresh.Storage.ReopenSeconds <= 0 {
			problems = append(problems, "storage section has an empty reopen timing")
		}
	}
	if t := fresh.Traffic; t != nil {
		if len(t.Stages) == 0 {
			problems = append(problems, "traffic section has no stages")
		}
		var totalShed uint64
		for i, st := range t.Stages {
			if st.Requests == 0 || st.OK == 0 {
				problems = append(problems, fmt.Sprintf("traffic stage %d is empty (%d requests, %d ok)", i, st.Requests, st.OK))
			}
			if st.P50 <= 0 || st.P50 > st.P95 || st.P95 > st.P99 {
				problems = append(problems, fmt.Sprintf("traffic stage %d has broken percentiles (p50=%v p95=%v p99=%v)", i, st.P50, st.P95, st.P99))
			}
			totalShed += st.Shed
		}
		if totalShed == 0 {
			problems = append(problems, "traffic: no request was ever shed — admission gates never engaged")
		}
		if !t.RetryAfterAlways {
			problems = append(problems, "traffic: some shed response lacked Retry-After")
		}
		if t.UnexpectedErrors != 0 {
			problems = append(problems, fmt.Sprintf("traffic: %d unexpected errors (non-200/429/503 or transport failures)", t.UnexpectedErrors))
		}
		if t.IdentityViolations != 0 {
			problems = append(problems, fmt.Sprintf("traffic: %d responses diverged from their reference bodies", t.IdentityViolations))
		}
		if t.Stampede.Evaluations != 1 {
			problems = append(problems, fmt.Sprintf("traffic: stampede cost %d evaluations, want exactly 1", t.Stampede.Evaluations))
		}
		if !t.Stampede.ByteIdentical {
			problems = append(problems, "traffic: stampede responses diverged")
		}
	}
	return problems
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
