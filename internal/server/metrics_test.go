package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfframes/internal/faults"
	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// newMetricsServer builds a caching endpoint with metrics enabled, a
// slow-query log armed at threshold 0 (every completed query logs), and a
// fault injector for slowing evaluations.
func newMetricsServer(t *testing.T, maxInFlight int) (*httptest.Server, *Server, *faults.Evals, *obs.SlowLog, *bytes.Buffer) {
	t.Helper()
	st := store.New()
	for i := 0; i < 25; i++ {
		err := st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng := sparql.NewEngine(st)
	eng.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
	var ev faults.Evals
	eng.SetEvalHook(ev.Hook)
	srv := New(eng)
	srv.MaxInFlight = maxInFlight
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	srv.EnableMetrics(reg)
	var slowBuf bytes.Buffer
	slow := obs.NewSlowLog(&slowBuf, 0)
	srv.SetSlowLog(slow)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, &ev, slow, &slowBuf
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

// fullStats is the /stats shape the consistency test reads.
type fullStats struct {
	Graphs []struct {
		Graph        string  `json:"graph"`
		Triples      float64 `json:"triples"`
		BaseTriples  float64 `json:"base_triples"`
		DeltaTriples float64 `json:"delta_triples"`
		Tombstones   float64 `json:"tombstones"`
		IndexBytes   float64 `json:"index_bytes"`
	} `json:"graphs"`
	DictTerms float64           `json:"dict_terms"`
	DictBytes float64           `json:"dict_bytes"`
	Cache     sparql.CacheStats `json:"cache"`
	Admission AdmissionStats    `json:"admission"`
	Latency   *struct {
		Count      uint64  `json:"count"`
		SumSeconds float64 `json:"sum_seconds"`
		P50        float64 `json:"p50_seconds"`
		P95        float64 `json:"p95_seconds"`
		P99        float64 `json:"p99_seconds"`
	} `json:"latency"`
	SlowLog *struct {
		Armed   bool   `json:"armed"`
		Entries uint64 `json:"entries"`
		Dropped uint64 `json:"dropped"`
	} `json:"slowlog"`
}

// TestStatsMetricsConsistencyUnderLoad hammers a metrics-enabled endpoint —
// concurrent mixed queries, capacity sheds, parse errors — then reads
// /stats and /metrics off the quiesced server and requires every counter
// the two surfaces share to be EQUAL. Both render the same atomics through
// read-through functions, so any divergence is a second bookkeeping path
// sneaking in. Run under -race in CI: the hammer also doubles as a data-race
// probe over the whole observation path.
func TestStatsMetricsConsistencyUnderLoad(t *testing.T) {
	ts, srv, ev, slow, slowBuf := newMetricsServer(t, 2)
	ev.SetDelay(2 * time.Millisecond)

	queries := []string{
		admissionQuery,
		`SELECT ?s WHERE { ?s <http://ex/p> 3 }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 10`,
	}
	client := &http.Client{}

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				label := fmt.Sprintf("Q%d", (w+i)%len(queries))
				if (w+i)%11 == 0 {
					q = "SELECT nonsense {" // parse error -> 400
					label = "bad"
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Query-Label", label)
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusBadRequest:
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	ev.SetDelay(0)
	// With two slots and eight workers, capacity sheds can turn away every
	// parse error of the hammer; one more on the idle server is always parsed.
	resp, err := client.Get(ts.URL + "/sparql?query=" + url.QueryEscape("SELECT nonsense {"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a parse error on the idle server: status %d, want 400", resp.StatusCode)
	}

	// A graph created by an update after the metrics were registered gets
	// its per-graph series too; deleting one of its two triples leaves a
	// tombstone to report.
	for _, u := range []string{
		`INSERT DATA { GRAPH <http://ex/late> { <http://ex/a> <http://ex/p> 1 . <http://ex/a> <http://ex/p> 2 } }`,
		`DELETE DATA { GRAPH <http://ex/late> { <http://ex/a> <http://ex/p> 2 } }`,
	} {
		if _, err := srv.Engine.Update(context.Background(), u, ""); err != nil {
			t.Fatal(err)
		}
	}

	// The server is quiet now: /stats and /metrics reads move no /sparql
	// counter, so the two scrapes see one frozen state.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats fullStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, types, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(types) == 0 {
		t.Fatal("empty /metrics exposition")
	}
	for _, fam := range requiredMetricFamilies {
		if _, ok := types[fam]; !ok {
			t.Errorf("required metric family %s missing", fam)
		}
	}
	for name, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %v, want a finite non-negative value", name, v)
		}
	}

	// Every counter the two surfaces share must be equal — same atomics,
	// read through at render time.
	pairs := []struct {
		name string
		want float64
	}{
		{`rdfframes_cache_hits_total{cache="plan"}`, float64(stats.Cache.Plans.Hits)},
		{`rdfframes_cache_misses_total{cache="plan"}`, float64(stats.Cache.Plans.Misses)},
		{`rdfframes_cache_hits_total{cache="result"}`, float64(stats.Cache.Results.Hits)},
		{`rdfframes_cache_misses_total{cache="result"}`, float64(stats.Cache.Results.Misses)},
		{`rdfframes_singleflight_total{role="leader"}`, float64(stats.Cache.Singleflight.Leaders)},
		{`rdfframes_singleflight_total{role="waiter"}`, float64(stats.Cache.Singleflight.Waiters)},
		{`rdfframes_admitted_total`, float64(stats.Admission.Admitted)},
		{`rdfframes_admission_shed_total{reason="capacity"}`, float64(stats.Admission.Shed[ShedCapacity])},
		{`rdfframes_admission_shed_total{reason="cost"}`, float64(stats.Admission.Shed[ShedCost])},
		{`rdfframes_admission_shed_total{reason="draining"}`, float64(stats.Admission.Shed[ShedDraining])},
		{`rdfframes_query_seconds_count`, float64(stats.Latency.Count)},
		{`rdfframes_slowlog_entries_total`, float64(stats.SlowLog.Entries)},
		{`rdfframes_evaluations_total`, float64(srv.Engine.Evaluations())},
		{`rdfframes_store_dict_terms`, stats.DictTerms},
		{`rdfframes_store_dict_bytes`, stats.DictBytes},
	}
	for _, p := range pairs {
		got, ok := samples[p.name]
		if !ok {
			t.Errorf("/metrics lacks %s", p.name)
			continue
		}
		if got != p.want {
			t.Errorf("%s: /metrics=%v /stats=%v — the surfaces disagree", p.name, got, p.want)
		}
	}

	// 25 subjects, one predicate and 25 objects, then the late graph's
	// subject: its objects 1 and 2 were interned already.
	if stats.DictTerms != 52 || stats.DictBytes < 16*stats.DictTerms {
		t.Errorf("dictionary: %v terms in %v bytes, want 52 terms", stats.DictTerms, stats.DictBytes)
	}

	// The per-graph layout gauges mirror /stats graph for graph, and add up
	// to the store-wide triple count.
	var triples float64
	for _, g := range stats.Graphs {
		for name, want := range map[string]float64{
			"rdfframes_store_base_triples": g.BaseTriples, "rdfframes_store_delta_triples": g.DeltaTriples,
			"rdfframes_store_tombstones": g.Tombstones, "rdfframes_store_index_bytes": g.IndexBytes,
		} {
			series := fmt.Sprintf(`%s{graph="%s"}`, name, g.Graph)
			if got, ok := samples[series]; !ok || got != want {
				t.Errorf("%s: /metrics=%v (present %v) /stats=%v", series, got, ok, want)
			}
		}
		if g.BaseTriples+g.DeltaTriples-g.Tombstones != g.Triples || g.IndexBytes <= 0 {
			t.Errorf("graph %s: layout %+v does not add up to its %v triples", g.Graph, g, g.Triples)
		}
		if g.Graph == "http://ex/late" && (g.Triples != 1 || g.Tombstones != 1) {
			t.Errorf("late graph: %+v, want 1 live triple and 1 tombstone", g)
		}
		triples += g.Triples
	}
	if got := samples["rdfframes_store_triples"]; got != triples || len(stats.Graphs) < 2 {
		t.Errorf("rdfframes_store_triples = %v, /stats graphs (%d of them) sum to %v", got, len(stats.Graphs), triples)
	}

	// The latency histogram observes exactly the 200 responses.
	if got := samples[`rdfframes_http_requests_total{code="200"}`]; got != float64(stats.Latency.Count) {
		t.Errorf("200 responses = %v but latency count = %d", got, stats.Latency.Count)
	}
	// Every 200 carried an X-Query-Label, so the per-label histograms must
	// partition the overall one exactly.
	var labeled float64
	for name, v := range samples {
		if strings.HasPrefix(name, `rdfframes_query_task_seconds_count{`) {
			labeled += v
		}
	}
	if labeled != float64(stats.Latency.Count) {
		t.Errorf("per-label counts sum to %v, overall histogram has %d", labeled, stats.Latency.Count)
	}

	// Sanity: the hammer actually exercised the interesting paths.
	if stats.Latency.Count == 0 {
		t.Fatal("no successful query was measured")
	}
	if samples[`rdfframes_http_requests_total{code="400"}`] == 0 {
		t.Fatal("no parse error was counted")
	}

	// The slow log (threshold 0) recorded every completed query as valid
	// JSON, dropped none, and its counters agree across surfaces too.
	if slow.Entries() != stats.SlowLog.Entries {
		t.Fatalf("slow log entries: log=%d /stats=%d", slow.Entries(), stats.SlowLog.Entries)
	}
	if slow.Dropped() != 0 {
		t.Fatalf("slow log dropped %d entries", slow.Dropped())
	}
	dec := json.NewDecoder(slowBuf)
	var lines uint64
	for dec.More() {
		var e obs.SlowEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("slow log line %d: %v", lines+1, err)
		}
		if e.RequestID == "" || e.Time == "" {
			t.Fatalf("slow log line %d lacks its request id or time: %+v", lines+1, e)
		}
		lines++
	}
	if lines != slow.Entries() {
		t.Fatalf("slow log: %d lines written, %d counted", lines, slow.Entries())
	}
}

// TestTraceAnnex drives the ?trace=1 surface end to end: the annex appears
// only when asked for, carries the caller's X-Request-ID, reflects the
// cache outcome, and never leaks into the shared cached body other
// requests receive.
func TestTraceAnnex(t *testing.T) {
	ts, _, _, _, _ := newMetricsServer(t, 0)
	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 5`)

	get := func(extra, reqID string) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+q+extra, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatalf("body is not JSON: %v", err)
		}
		return resp, top
	}

	// Cold, traced: full annex with spans, a miss outcome, and the executed
	// plan with per-operator detail.
	resp, top := get("&trace=1", "trace-test-1")
	if got := resp.Header.Get("X-Request-ID"); got != "trace-test-1" {
		t.Fatalf("request id not echoed: %q", got)
	}
	raw, ok := top["trace"]
	if !ok {
		t.Fatal("traced response has no trace member")
	}
	var rep obs.TraceReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != "trace-test-1" {
		t.Fatalf("trace request id = %q", rep.RequestID)
	}
	if rep.WallSeconds <= 0 || len(rep.Spans) == 0 {
		t.Fatalf("degenerate trace: wall=%v spans=%d", rep.WallSeconds, len(rep.Spans))
	}
	spanNames := map[string]bool{}
	var spanSum float64
	for _, sp := range rep.Spans {
		spanNames[sp.Name] = true
		spanSum += sp.Seconds
	}
	// Stages don't overlap, so their durations must fit inside the wall
	// time the trace measured.
	if spanSum > rep.WallSeconds {
		t.Errorf("span sum %v exceeds wall time %v", spanSum, rep.WallSeconds)
	}
	for _, want := range []string{"admission", "parse", "exec", "encode"} {
		if !spanNames[want] {
			t.Errorf("cold trace lacks %q span (have %v)", want, rep.Spans)
		}
	}
	if rep.Annotations["result_cache"] != "miss" {
		t.Errorf("cold annotations = %v, want result_cache=miss", rep.Annotations)
	}
	if rep.Annotations["plan_digest"] == "" {
		t.Error("no plan digest annotated")
	}
	if rep.Plan == nil {
		t.Error("detailed cold trace carries no executed plan")
	}

	// Untraced: the cached body must come back without any annex.
	_, top = get("", "")
	if _, leaked := top["trace"]; leaked {
		t.Fatal("trace annex leaked into an untraced response")
	}

	// Warm, traced: annex again, now a hit, spliced into a COPY of the
	// cached entry (the untraced read above proves the entry is clean).
	_, top = get("&trace=1", "trace-test-2")
	if err := json.Unmarshal(top["trace"], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != "trace-test-2" {
		t.Fatalf("warm trace request id = %q", rep.RequestID)
	}
	if rep.Annotations["result_cache"] != "hit" {
		t.Errorf("warm annotations = %v, want result_cache=hit", rep.Annotations)
	}

	// And the entry is still clean after the traced hit.
	_, top = get("", "")
	if _, leaked := top["trace"]; leaked {
		t.Fatal("traced hit mutated the shared cache entry")
	}
}

// TestRequestIDMinted: a request without X-Request-ID gets one minted and
// echoed, and distinct requests get distinct ids.
func TestRequestIDMinted(t *testing.T) {
	ts, _, _, _, _ := newMetricsServer(t, 0)
	u := ts.URL + "/sparql?query=" + url.QueryEscape(admissionQuery)
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if len(id) != 16 {
			t.Fatalf("minted id %q, want 16 hex chars", id)
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Fatal("two requests shared a minted id")
	}
}

// TestJoinAndReuseCountersSurface: what an evaluation's joins checked and
// emitted and how many repeated subplans it reused show on all three
// surfaces — the ?trace=1 annex, the slow-query line (a grep, not a
// profile) and /metrics — and agree with each other.
func TestJoinAndReuseCountersSurface(t *testing.T) {
	ts, _, _, _, slowBuf := newMetricsServer(t, 0)
	// Twice the same subquery (one evaluation, one reuse), joined on both
	// columns: 25 candidates, 25 rows. The three joins with the unit
	// solution that groups start from check no candidates but emit their
	// right side's 25 rows each: 100 rows in all.
	const sub = `{ SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } }`
	q := `SELECT * WHERE { ` + sub + ` ` + sub + ` }`
	resp, err := http.Get(ts.URL + "/sparql?trace=1&query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Trace obs.TraceReport `json:"trace"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"join_candidates": "25", "join_rows": "100", "subplan_reuses": "1"}
	for k, v := range want {
		if got := body.Trace.Annotations[k]; got != v {
			t.Errorf("trace annotation %s = %q, want %q (all: %v)", k, got, v, body.Trace.Annotations)
		}
	}

	var entry obs.SlowEntry
	if err := json.Unmarshal(bytes.TrimSpace(slowBuf.Bytes()), &entry); err != nil {
		t.Fatalf("slow-query line: %v\n%s", err, slowBuf.Bytes())
	}
	for k, v := range want {
		if entry.Annotations[k] != v {
			t.Errorf("slow-query line %s = %q, want %q", k, entry.Annotations[k], v)
		}
	}
	if !strings.Contains(slowBuf.String(), `"join_candidates":"25"`) {
		t.Errorf("join_candidates is not a grep in the slow-query log:\n%s", slowBuf.String())
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"rdfframes_join_candidates_total": 25, "rdfframes_join_rows_total": 100, "rdfframes_subplan_reuses_total": 1,
	} {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("/metrics %s = %v (present %v), want %v", name, got, ok, v)
		}
	}
}

// TestEveryDataRouteIsObserved: export, features and update requests run
// the pipeline queries do, so each counts in rdfframes_http_requests_total,
// observes rdfframes_query_seconds on a 200, and writes a slow-query line
// under its X-Request-ID; a malformed export format or features cap is
// answered 400, observed, and never takes an admission slot.
func TestEveryDataRouteIsObserved(t *testing.T) {
	ts, srv, _, _, slowBuf := newMetricsServer(t, 0)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	send := func(id, method, target string, form url.Values) int {
		t.Helper()
		var body io.Reader
		if form != nil {
			body = strings.NewReader(form.Encode())
		}
		req, err := http.NewRequest(method, ts.URL+target, body)
		if err != nil {
			t.Fatal(err)
		}
		if form != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// The body ends after the handler returned, and with it its
		// observation.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, _, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}

	before, admitted := scrape(), srv.AdmissionStats().Admitted
	for id, target := range map[string]string{
		"bad-format": "/v1/export?format=arrow&query=" + q,
		"bad-cap":    "/v1/features?cap=many&query=" + q,
	} {
		if code := send(id, http.MethodGet, target, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", id, code)
		}
	}
	if got := srv.AdmissionStats().Admitted; got != admitted {
		t.Errorf("malformed parameters took %d admission slots", got-admitted)
	}
	for _, c := range []struct {
		id, method, target string
		form               url.Values
	}{
		{"obs-export", http.MethodGet, "/v1/export?query=" + q, nil},
		{"obs-features", http.MethodGet, "/v1/features?query=" + q, nil},
		{"obs-update", http.MethodPost, "/v1/update",
			url.Values{"update": {`INSERT DATA { GRAPH <http://ex/obs> { <http://ex/a> <http://ex/p> 1 } }`}}},
	} {
		if code := send(c.id, c.method, c.target, c.form); code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", c.id, code)
		}
	}
	after := scrape()
	for name, want := range map[string]float64{
		`rdfframes_http_requests_total{code="200"}`: 3,
		`rdfframes_http_requests_total{code="400"}`: 2,
		`rdfframes_query_seconds_count`:             3,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}

	status := map[string]int{}
	dec := json.NewDecoder(slowBuf)
	for dec.More() {
		var e obs.SlowEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		status[e.RequestID] = e.Status
	}
	for id, want := range map[string]int{
		"bad-format": 400, "bad-cap": 400, "obs-export": 200, "obs-features": 200, "obs-update": 200,
	} {
		if got, ok := status[id]; !ok || got != want {
			t.Errorf("slow-query line of %s: status %d (present %v), want %d", id, got, ok, want)
		}
	}
}
