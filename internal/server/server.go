// Package server exposes a SPARQL engine over HTTP following the SPARQL 1.1
// Protocol: GET/POST /sparql with a "query" parameter, returning results in
// the SPARQL JSON results format.
//
// Like the endpoints the paper targets, the server truncates each response
// at a configurable row cap (Virtuoso's ResultSetMaxRows), so clients must
// paginate with LIMIT/OFFSET to retrieve complete results — exactly the
// behaviour RDFFrames' client handles transparently.
//
// The serving path goes through the engine's plan and result caches when
// they are enabled (sparql.Engine.EnableCache): responses carry
// X-Cache: hit|miss and X-Store-Version headers, /stats reports the cache
// counters, and bodies are gzip-compressed when the client's
// Accept-Encoding admits it.
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
// unchanged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/sparql", s.handleQuery)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/export", s.handleExport)
	mux.HandleFunc("/v1/features", s.handleFeatures)
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	w = sw

	// Observation state, filled in as the request progresses and flushed by
	// the single deferred observe call — so every exit path (sheds, body
	// errors, disconnects) lands in the same counters and slow-query log.
	var (
		query string
		rows  int
		info  sparql.ServeInfo
		tr    *obs.Trace
		qerr  error
		reqID string
	)
	defer func() {
		s.observe(r, reqID, tr, sw.status(), start, query, rows,
			info.CacheOutcome(), info.PlanDigest, info.StoreVersion, qerr)
	}()

	var ok bool
	if query, ok = s.readQuery(w, r); !ok {
		return
	}

	// Request identity and tracing. The id comes from the client when it
	// sent one (X-Request-ID, so client and server logs correlate) and is
	// minted otherwise; it is echoed on every response. A trace is created
	// only when the response should carry one (?trace=1) or the slow-query
	// log is armed — the disabled path costs one header read and a nil
	// trace whose recording methods are all no-ops.
	reqID = requestID(w, r)
	wantTrace := traceRequested(r)
	if wantTrace || s.slowLog.Armed() {
		tr = obs.NewTrace(reqID)
		tr.Detail = wantTrace
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}

	// Admission gates: drain, cost budget, in-flight capacity — shed here,
	// before any evaluation work, with 429/503 + Retry-After (admission.go).
	endAdmit := tr.StartSpan("admission")
	release, ok := s.admit(r.Context(), w, query)
	endAdmit()
	if !ok {
		return
	}
	defer release()

	if explainRequested(r) {
		s.handleExplain(w, r, query, start)
		return
	}

	// The request context bounds the evaluation: a client that disconnects
	// (or an abandoned benchmark run that cancels its request) stops the
	// query's work — including its morsel workers — within one tick window
	// instead of evaluating to completion on a detached goroutine.
	resp, err := s.Engine.Stream(r.Context(), sparql.Request{
		Query:   query,
		Serving: true,
		MaxRows: s.MaxRows,
	})
	if err != nil {
		qerr = err
		s.evalFailed(w, "query", err, start)
		return
	}
	// The request is answered — nothing below can change the status — and
	// no store lock is held: the page streams out of the engine's compact
	// form while the client reads.
	rows, info = resp.Rows, resp.Info
	w.Header().Set("X-Store-Version", strconv.FormatUint(info.StoreVersion, 10))
	if info.CacheEnabled {
		switch {
		case info.Hit:
			w.Header().Set("X-Cache", "hit")
		case info.Coalesced:
			// Missed the cache but rode another request's in-progress
			// evaluation of the same key (stampede protection).
			w.Header().Set("X-Cache", "coalesced")
		default:
			w.Header().Set("X-Cache", "miss")
		}
	}
	if resp.Truncated {
		w.Header().Set("X-Truncated", "true")
	}
	write := resp.WriteJSON
	switch {
	case wantTrace:
		// The trace annex is a JSON member: a traced response is JSON.
		w.Header().Set("Content-Type", jsonResults)
		write = func(out io.Writer) error { return writeTraced(out, resp, tr) }
	case negotiate(w, r) == sparql.TableMediaType:
		write = resp.WriteTable
	}
	if err := s.writeBody(w, r, write); err != nil {
		s.logf("write error: %v", err)
		return
	}
	s.logf("query ok: %d rows in %v (truncated=%v, cache=%v/%v)",
		rows, time.Since(start), resp.Truncated, info.CacheEnabled, info.Hit)
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

// explainRequested reports whether the request asked for the query plan
// (?explain=1 on the URL, or explain=1 in a POST form).
func explainRequested(r *http.Request) bool {
	if r.URL.Query().Get("explain") == "1" {
		return true
	}
	return r.PostForm.Get("explain") == "1"
}

// traceRequested reports whether the request asked for the trace annex
// (?trace=1 on the URL, or trace=1 in a POST form).
func traceRequested(r *http.Request) bool {
	if r.URL.Query().Get("trace") == "1" {
		return true
	}
	return r.PostForm.Get("trace") == "1"
}

// handleExplain answers ?explain=1: the query is optimized and executed
// once and the plan tree — estimated vs actual cardinalities per operator —
// is returned as JSON (sparql.ExplainReport). Explain output depends on
// live execution counters, so it bypasses the serving caches.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, query string, start time.Time) {
	rep, err := s.Engine.ExplainContext(r.Context(), query)
	if err != nil {
		s.evalFailed(w, "explain", err, start)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Store-Version", strconv.FormatUint(rep.StoreVersion, 10))
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		s.logf("explain write error: %v", err)
		return
	}
	s.logf("explain ok: %d rows in %v", rep.Rows, time.Since(start))
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

// requestID echoes the request's X-Request-ID, minting one when the client
// sent none, so that client and server logs correlate.
func requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	return id
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

// rejectBody answers a failed POST body read: 413 when the MaxBytesReader
// cap fired, 400 for any other malformed body.
func (s *Server) rejectBody(w http.ResponseWriter, err error, limit int64) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, fmt.Sprintf("query body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		s.logf("query body over %d bytes rejected", limit)
		return
	}
	http.Error(w, "malformed request body", http.StatusBadRequest)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
	}
}
