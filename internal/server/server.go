// Package server exposes a SPARQL engine over HTTP following the SPARQL 1.1
// Protocol: GET/POST /sparql (or /v1/query) with a "query" parameter,
// answering SPARQL-JSON results or, when the Accept header lists it, the
// table body (sparql.TableMediaType); POST /v1/update applies SPARQL
// UPDATE; /v1/export streams a result as CSV and /v1/features answers
// topology features. The four data routes run one request pipeline (route).
//
// Like the endpoints the paper targets, the server truncates each response
// at a configurable row cap (Virtuoso's ResultSetMaxRows), so clients must
// paginate with LIMIT/OFFSET to retrieve complete results — exactly the
// behaviour RDFFrames' client handles transparently.
//
// Every query goes through the engine's plan cache, and the serving path
// through its result cache when that is enabled (sparql.Engine.EnableCache):
// responses carry X-Cache: hit|miss and X-Store-Version headers, /stats
// reports the cache counters, and bodies are gzip-compressed when the
// client's Accept-Encoding admits it.
package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rdfframes/internal/freelist"
	"rdfframes/internal/obs"
	"rdfframes/internal/sparql"
)

// defaultMaxBodyBytes caps POST bodies when the caller sets no limit: 1 MiB
// is far beyond any RDFFrames-generated query.
const defaultMaxBodyBytes = 1 << 20

// Server is a SPARQL protocol endpoint over an engine.
type Server struct {
	// Engine evaluates the queries.
	Engine *sparql.Engine
	// MaxRows caps the number of rows per response (0 = unlimited). When a
	// result is truncated the server sets the X-Truncated header.
	MaxRows int
	// MaxBodyBytes caps the size of POST request bodies (0 = 1 MiB).
	// Oversized bodies are rejected with 413 Request Entity Too Large.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently evaluating queries (0 = unlimited).
	// Requests beyond the bound are shed with 429 + Retry-After instead of
	// queueing unboundedly (see admission.go).
	MaxInFlight int
	// MaxQueryCost, when > 0, sheds queries whose planner cost estimate
	// (summed intermediate cardinalities, see sparql.Engine.EstimateCost)
	// exceeds it, with 429 + Retry-After.
	MaxQueryCost float64
	// RetryAfter is the Retry-After hint on shed responses (0 = 1s).
	RetryAfter time.Duration
	// ExportChunkBytes is the /v1/export chunk threshold: the streaming
	// encoder drains to the client whenever its buffer crosses this size
	// (0 = dataframe.DefaultChunkBytes). Peak server memory per export is
	// bounded near one chunk.
	ExportChunkBytes int
	// Logger, when set, records one line per request.
	Logger *log.Logger

	adm admission

	// metrics is set by EnableMetrics; slowLog by SetSlowLog (both in
	// metrics.go). Nil means the corresponding surface is off.
	metrics *serverMetrics
	slowLog *obs.SlowLog
}

// New returns a server over the given engine with no row cap.
func New(engine *sparql.Engine) *Server { return &Server{Engine: engine} }

// Handler returns the HTTP handler implementing the endpoint routes. The
// canonical surface is versioned — /v1/query, /v1/update, /v1/stats,
// /v1/metrics — and the original unversioned paths (/sparql, /stats,
// /metrics) stay registered as aliases of the same handlers, so existing
// clients, dashboards, and the CI metrics-scrape contract keep working
// unchanged. The four data routes run the one request pipeline of route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	query := &route{s: s, what: "query", answer: s.answerQuery}
	mux.Handle("/v1/query", query)
	mux.Handle("/sparql", query)
	mux.Handle("/v1/update", &route{s: s, what: "update", write: true, answer: s.answerUpdate})
	mux.Handle("/v1/export", &route{s: s, what: "export", check: checkExport, answer: s.answerExport})
	mux.Handle("/v1/features", &route{s: s, what: "features", check: checkFeatures, answer: s.answerFeatures})
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if s.metrics != nil {
		mux.Handle("/v1/metrics", s.metrics.reg.Handler())
		mux.Handle("/metrics", s.metrics.reg.Handler())
	}
	return mux
}

// route is one data route: the request pipeline every data route shares,
// around the route's own answer.
type route struct {
	s *Server
	// what names the route in logs: query, update, export or features.
	what string
	// write marks /v1/update: POST only, its text in the "update" parameter
	// or an application/sparql-update body, and no cost gate.
	write bool
	// check, when set, validates the route's own parameters before the
	// request is admitted; its error is answered 400.
	check func(r *http.Request) error
	// answer writes the response to an admitted request, and reports what
	// the request did for observation.
	answer func(w http.ResponseWriter, r *http.Request, text string, tr *obs.Trace) outcome
}

// outcome is what a route's answer reports of a request for observation:
// the rows answered, the serving-cache outcome ("write" for an update),
// the plan digest, the store version the response reflects, and the error
// that failed the request, evaluation or write.
type outcome struct {
	rows    int
	cache   string
	plan    string
	version uint64
	err     error
}

// ServeHTTP runs the pipeline: read the request text, set the request id,
// start a trace when one is wanted, check the route's parameters, admit the
// request, answer it, and observe it once whichever way it ends — sheds,
// body errors and disconnects land in the same counters and slow-query log
// as answers.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s, start := rt.s, time.Now()
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	var (
		text, reqID string
		tr          *obs.Trace
		out         outcome
	)
	defer func() { s.observe(r, reqID, tr, sw.status(), start, text, out) }()

	var ok bool
	if text, ok = s.readText(w, r, rt.write); !ok {
		return
	}

	// Request identity and tracing. The id comes from the client when it
	// sent one (X-Request-ID, so client and server logs correlate) and is
	// minted otherwise; it is echoed on every response. A trace is created
	// only when the response should carry one (?trace=1) or the slow-query
	// log is armed — the disabled path costs one parameter read and a nil
	// trace whose recording methods are all no-ops.
	if reqID = r.Header.Get("X-Request-ID"); reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	wantTrace := r.Form.Get("trace") == "1"
	if wantTrace || s.slowLog.Armed() {
		tr = obs.NewTrace(reqID)
		tr.Detail = wantTrace
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	if rt.check != nil {
		if err := rt.check(r); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	// Admission gates: drain, cost budget, in-flight capacity — shed here,
	// before any evaluation work, with 429/503 + Retry-After (admission.go).
	endAdmit := tr.StartSpan("admission")
	release, ok := s.admit(r.Context(), w, text, rt.write)
	endAdmit()
	if !ok {
		return
	}
	defer release()

	// The request context bounds the answer: a client that disconnects (or
	// an abandoned benchmark run that cancels its request) stops the work —
	// including its morsel workers — within one tick window.
	out = rt.answer(w, r, text, tr)
	switch {
	case out.err == nil:
		s.logf("%s ok: %d rows in %v", rt.what, out.rows, time.Since(start))
	case sw.code == 0:
		s.evalFailed(w, rt.what, out.err, start)
	default:
		// The status line is gone; all we can do is cut the response.
		s.logf("%s aborted mid-response after %v: %v", rt.what, time.Since(start), out.err)
	}
}

// answerQuery answers /v1/query and /sparql: the plan on ?explain=1,
// otherwise the page through the serving caches with its cache headers, in
// the body the request negotiated, or as SPARQL-JSON with the trace annex
// on ?trace=1. No store lock is held while the page streams out of the
// engine's compact form.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, query string, tr *obs.Trace) outcome {
	if r.Form.Get("explain") == "1" {
		return s.answerExplain(w, r, query)
	}
	resp, err := s.Engine.Stream(r.Context(), sparql.Request{
		Query:   query,
		Serving: true,
		MaxRows: s.MaxRows,
	})
	if err != nil {
		return outcome{err: err}
	}
	info := resp.Info
	out := outcome{rows: resp.Rows, cache: info.CacheOutcome(), plan: info.PlanDigest, version: info.StoreVersion}
	w.Header().Set("X-Store-Version", strconv.FormatUint(info.StoreVersion, 10))
	if info.CacheEnabled {
		// hit, miss, or coalesced: missed, but rode another request's
		// in-progress evaluation of the same key.
		w.Header().Set("X-Cache", out.cache)
	}
	if resp.Truncated {
		w.Header().Set("X-Truncated", "true")
	}
	write := resp.WriteJSON
	switch {
	case r.Form.Get("trace") == "1":
		// The trace annex is a JSON member: a traced response is JSON.
		w.Header().Set("Content-Type", jsonResults)
		write = func(out io.Writer) error { return writeTraced(out, resp, tr) }
	case negotiate(w, r) == sparql.TableMediaType:
		write = resp.WriteTable
	}
	out.err = s.writeBody(w, r, write)
	return out
}

// writeBody sends the response body write produces, gzip-compressed when
// the request's Accept-Encoding admits it. The body goes to the client as
// write produces it.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, write func(io.Writer) error) error {
	if !accepts(r, "Accept-Encoding", "gzip") {
		return write(w)
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Add("Vary", "Accept-Encoding")
	gz := gzipWriters.Get()
	if gz == nil {
		gz, _ = gzip.NewWriterLevel(w, gzip.BestSpeed) // the level is valid
	} else {
		gz.Reset(w)
	}
	defer gzipWriters.Put(gz)
	if err := write(gz); err != nil {
		return err
	}
	return gz.Close()
}

// jsonResults is the media type of SPARQL-JSON results.
const jsonResults = "application/sparql-results+json"

// negotiate picks a results body by the request's Accept header: the table
// body when it is listed, SPARQL-JSON otherwise. It sets Content-Type and
// Vary, and returns the media type.
func negotiate(w http.ResponseWriter, r *http.Request) string {
	ctype := jsonResults
	if accepts(r, "Accept", sparql.TableMediaType) {
		ctype = sparql.TableMediaType
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Add("Vary", "Accept")
	return ctype
}

// writeTraced writes resp's page with the trace report as a trailer: the
// document's closing brace is held back, and a top-level "trace" member
// follows the rows. The bytes before the trailer are those of the untraced
// response, and the report is rendered after the last row is written, so it
// covers the encode.
func writeTraced(out io.Writer, resp *sparql.Response, tr *obs.Trace) error {
	body := &holdLast{w: out}
	if err := resp.WriteJSON(body); err != nil {
		return err
	}
	annex, err := json.Marshal(tr.Report())
	if err != nil {
		annex = []byte("null")
	}
	_, err = fmt.Fprintf(out, `,"trace":%s}`, annex)
	return err
}

// holdLast passes writes through to w except for the last byte written so
// far, which it keeps.
type holdLast struct {
	w    io.Writer
	last [1]byte
	held bool
}

func (h *holdLast) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if h.held {
		if _, err := h.w.Write(h.last[:]); err != nil {
			return 0, err
		}
	}
	h.last[0], h.held = p[len(p)-1], true
	if n, err := h.w.Write(p[:len(p)-1]); err != nil {
		return n, err
	}
	return len(p), nil
}

// answerExplain answers ?explain=1: the query is optimized and executed
// once and the plan tree — estimated vs actual cardinalities per operator —
// is returned as JSON (sparql.ExplainReport). Explain output depends on
// live execution counters, so it bypasses the serving caches.
func (s *Server) answerExplain(w http.ResponseWriter, r *http.Request, query string) outcome {
	rep, err := s.Engine.ExplainContext(r.Context(), query)
	if err != nil {
		return outcome{err: err}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Store-Version", strconv.FormatUint(rep.StoreVersion, 10))
	return outcome{rows: rep.Rows, version: rep.StoreVersion, err: json.NewEncoder(w).Encode(rep)}
}

// gzipWriters recycles gzip writers across responses: serialization is part
// of every measured round trip, and a writer is some 600 KB of tables to
// build. It is a free list rather than a sync.Pool because the garbage
// collector empties a pool: how often a response paid for a new writer then
// followed how often the heap was collected, which is more often the
// smaller the store is. BestSpeed: the endpoint is throughput-bound, not
// bandwidth-bound.
var gzipWriters freelist.List[gzip.Writer]

// accepts reports whether the request's header (Accept or
// Accept-Encoding) lists token without an explicit q=0.
func accepts(r *http.Request, header, token string) bool {
	for _, part := range strings.Split(r.Header.Get(header), ",") {
		name, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(name), token) {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			if k, v, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(k), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				return err != nil || q > 0
			}
		}
		return true
	}
	return false
}

// handleStats reports per-graph triple counts, the store version, and the
// serving-cache counters as JSON — the exploration aid of the paper plus
// the operational numbers for the caching subsystem.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// graphStat mirrors the rdfframes_store_* per-graph gauges of /metrics.
	type graphStat struct {
		Graph        string `json:"graph"`
		Triples      int    `json:"triples"`
		BaseTriples  int    `json:"base_triples"`
		DeltaTriples int    `json:"delta_triples"`
		Tombstones   int    `json:"tombstones"`
		IndexBytes   int    `json:"index_bytes"`
	}
	type latencyStats struct {
		Count      uint64  `json:"count"`
		SumSeconds float64 `json:"sum_seconds"`
		P50        float64 `json:"p50_seconds"`
		P95        float64 `json:"p95_seconds"`
		P99        float64 `json:"p99_seconds"`
	}
	type slowLogStats struct {
		Armed            bool    `json:"armed"`
		ThresholdSeconds float64 `json:"threshold_seconds"`
		Entries          uint64  `json:"entries"`
		Dropped          uint64  `json:"dropped"`
	}
	type stats struct {
		StoreVersion uint64      `json:"store_version"`
		Graphs       []graphStat `json:"graphs"`
		// DictTerms and DictBytes mirror rdfframes_store_dict_{terms,bytes}.
		DictTerms int `json:"dict_terms"`
		DictBytes int `json:"dict_bytes"`
		// Parallelism is the engine's configured intra-query worker count
		// (0 = GOMAXPROCS); GOMAXPROCS reports what that resolves against.
		Parallelism int               `json:"parallelism"`
		GOMAXPROCS  int               `json:"gomaxprocs"`
		Cache       sparql.CacheStats `json:"cache"`
		// Admission reports the load-shedding gates: in-flight and admitted
		// queries plus per-reason shed counters (see admission.go).
		Admission AdmissionStats `json:"admission"`
		// Latency summarizes the same histogram /metrics exposes as
		// rdfframes_query_seconds (present when EnableMetrics was called);
		// SlowLog the slow-query log counters.
		Latency *latencyStats `json:"latency,omitempty"`
		SlowLog *slowLogStats `json:"slowlog,omitempty"`
	}
	st := s.Engine.Store
	out := stats{
		Cache:       s.Engine.CacheStats(),
		Parallelism: s.Engine.Parallelism,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Admission:   s.AdmissionStats(),
	}
	if m := s.metrics; m != nil {
		out.Latency = &latencyStats{
			Count:      m.latency.Count(),
			SumSeconds: m.latency.Sum(),
			P50:        m.latency.Quantile(0.50),
			P95:        m.latency.Quantile(0.95),
			P99:        m.latency.Quantile(0.99),
		}
	}
	if s.slowLog.Armed() {
		out.SlowLog = &slowLogStats{
			Armed:            true,
			ThresholdSeconds: s.slowLog.Threshold().Seconds(),
			Entries:          s.slowLog.Entries(),
			Dropped:          s.slowLog.Dropped(),
		}
	}
	st.RLock()
	out.StoreVersion = st.Version()
	out.DictTerms, out.DictBytes = st.Dict().Len(), st.Dict().Bytes()
	for _, uri := range st.GraphURIs() {
		g := st.Graph(uri)
		lay := g.Layout()
		out.Graphs = append(out.Graphs, graphStat{Graph: uri, Triples: g.Len(), BaseTriples: lay.BaseTriples,
			DeltaTriples: lay.DeltaTriples, Tombstones: lay.Tombstones, IndexBytes: lay.IndexBytes})
	}
	st.RUnlock()
	sort.Slice(out.Graphs, func(i, j int) bool { return out.Graphs[i].Graph < out.Graphs[j].Graph })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// readText reads the request's query or update text, and parses its
// parameters into r.Form for the rest of the pipeline: the "query" (for a
// write, "update") parameter of a GET URL or a POST form, or a raw
// application/sparql-query (application/sparql-update) POST body. POST
// bodies are capped at MaxBodyBytes; a write is POST only. A false return
// means the rejection has been written.
func (s *Server) readText(w http.ResponseWriter, r *http.Request, write bool) (string, bool) {
	param, raw := "query", "application/sparql-query"
	if write {
		param, raw = "update", "application/sparql-update"
	}
	limit := s.MaxBodyBytes
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	switch {
	case r.Method == http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	case r.Method != http.MethodGet || write:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return "", false
	}
	var text string
	rawBody := r.Method == http.MethodPost && strings.HasPrefix(r.Header.Get("Content-Type"), raw)
	if rawBody {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			s.rejectBody(w, err, limit)
			return "", false
		}
		text = string(body)
	}
	if err := r.ParseForm(); err != nil {
		s.rejectBody(w, err, limit)
		return "", false
	}
	if !rawBody {
		text = r.Form.Get(param)
	}
	if text == "" {
		http.Error(w, "missing "+param, http.StatusBadRequest)
		return "", false
	}
	return text, true
}

// evalFailed answers a request whose evaluation failed: with nothing when
// the client is gone, 504 on a timeout, 400 otherwise.
func (s *Server) evalFailed(w http.ResponseWriter, what string, err error, start time.Time) {
	if errors.Is(err, context.Canceled) {
		s.logf("%s canceled by client after %v", what, time.Since(start))
		return
	}
	status := http.StatusBadRequest
	if errors.Is(err, sparql.ErrTimeout) {
		status = http.StatusGatewayTimeout
	}
	http.Error(w, err.Error(), status)
	s.logf("%s error (%d) in %v: %v", what, status, time.Since(start), err)
}

// rejectBody answers a failed request read: 413 when the MaxBytesReader
// cap fired, 400 for any other malformed body or parameters.
func (s *Server) rejectBody(w http.ResponseWriter, err error, limit int64) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, fmt.Sprintf("query body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		s.logf("query body over %d bytes rejected", limit)
		return
	}
	http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
	}
}
