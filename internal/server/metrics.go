package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"rdfframes/internal/obs"
)

// Observability wiring for the server: EnableMetrics registers every
// serving-layer instrument on one obs.Registry — admission gates, HTTP
// outcomes, query-latency histograms — next to the engine's own metrics,
// and Handler() then serves the registry at /metrics. Counters that /stats
// already reports are exposed as read-through functions over the same
// atomics, so the two surfaces render one source of truth and cannot
// disagree.

// maxQueryLabels caps the distinct per-query-label latency series
// (X-Query-Label request header). The paper's Figure-5 suite is a dozen
// queries; anything past the cap lands in the pre-registered "other"
// series so an adversarial client cannot grow the registry unboundedly.
const maxQueryLabels = 32

// queryLabelHeader names the request header clients set to attribute a
// request to a workload query (e.g. "Q9", "Q13-expert") in the per-label
// latency histograms.
const queryLabelHeader = "X-Query-Label"

// serverMetrics holds the instruments the request path updates directly.
type serverMetrics struct {
	reg *obs.Registry

	// latency is the overall data-request latency histogram; byLabel the
	// per-X-Query-Label histograms (capped, "other" pre-registered).
	latency *obs.Histogram
	mu      sync.Mutex
	byLabel map[string]*obs.Histogram

	// requests counts data-route responses by status code; codes outside
	// the precreated set share the "other" counter.
	requests      map[int]*obs.Counter
	requestsOther *obs.Counter

	// traces counts requests that carried an active trace.
	traces *obs.Counter
}

const (
	latencyHelp = "Data request (query, export, features, update) latency in seconds (status 200 only)."
	taskHelp    = "Data request latency in seconds by workload query label (X-Query-Label header, status 200 only)."
)

// EnableMetrics registers the server's and its engine's metrics on reg and
// mounts /metrics on subsequently-built handlers. Call once, before
// serving traffic.
func (s *Server) EnableMetrics(reg *obs.Registry) {
	s.Engine.RegisterMetrics(reg)

	m := &serverMetrics{
		reg:     reg,
		latency: reg.Histogram("rdfframes_query_seconds", latencyHelp, nil),
		byLabel: map[string]*obs.Histogram{
			"other": reg.Histogram("rdfframes_query_task_seconds", taskHelp, nil, obs.L("query", "other")),
		},
		requests: map[int]*obs.Counter{},
		traces:   reg.Counter("rdfframes_traces_total", "Requests that ran with an active trace (?trace=1 or slow-log armed)."),
	}
	const reqHelp = "Data route responses by HTTP status code (499 = client disconnected before a response)."
	for _, code := range []int{200, 400, 404, 405, 413, 429, 499, 500, 503, 504} {
		m.requests[code] = reg.Counter("rdfframes_http_requests_total", reqHelp, obs.L("code", strconv.Itoa(code)))
	}
	m.requestsOther = reg.Counter("rdfframes_http_requests_total", reqHelp, obs.L("code", "other"))

	const shedHelp = "Requests refused by admission control, by reason."
	reg.CounterFunc("rdfframes_admission_shed_total", shedHelp,
		func() float64 { return float64(s.adm.shedCapacity.Load()) }, obs.L("reason", ShedCapacity))
	reg.CounterFunc("rdfframes_admission_shed_total", shedHelp,
		func() float64 { return float64(s.adm.shedCost.Load()) }, obs.L("reason", ShedCost))
	reg.CounterFunc("rdfframes_admission_shed_total", shedHelp,
		func() float64 { return float64(s.adm.shedDraining.Load()) }, obs.L("reason", ShedDraining))
	reg.CounterFunc("rdfframes_admitted_total",
		"Queries admitted past the admission gates.",
		func() float64 { return float64(s.adm.admitted.Load()) })
	reg.GaugeFunc("rdfframes_in_flight",
		"Queries currently evaluating.",
		func() float64 { return float64(s.adm.inFlight.Load()) })
	reg.GaugeFunc("rdfframes_draining",
		"1 while the server is draining for shutdown.",
		func() float64 {
			if s.adm.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("rdfframes_max_in_flight",
		"Configured in-flight admission limit (0 = unlimited).",
		func() float64 { return float64(s.MaxInFlight) })
	reg.GaugeFunc("rdfframes_max_query_cost",
		"Configured per-query cost budget (0 = off).",
		func() float64 { return s.MaxQueryCost })

	reg.CounterFunc("rdfframes_slowlog_entries_total",
		"Slow-query log entries written.",
		func() float64 { return float64(s.slowLog.Entries()) })
	reg.CounterFunc("rdfframes_slowlog_dropped_total",
		"Slow-query log entries lost to serialization or write errors.",
		func() float64 { return float64(s.slowLog.Dropped()) })

	s.metrics = m
}

// SetSlowLog arms the slow-query log; requests at or over its threshold
// are recorded as JSON lines (with their trace spans) on completion.
func (s *Server) SetSlowLog(l *obs.SlowLog) { s.slowLog = l }

// countRequest bumps the per-status-code response counter.
func (m *serverMetrics) countRequest(code int) {
	if c, ok := m.requests[code]; ok {
		c.Inc()
		return
	}
	m.requestsOther.Inc()
}

// taskHistogram resolves the per-query-label histogram for a request
// label, creating it on first use up to maxQueryLabels distinct labels;
// past the cap (or for unusable labels) the shared "other" series absorbs
// the observation.
func (m *serverMetrics) taskHistogram(label string) *obs.Histogram {
	label = sanitizeQueryLabel(label)
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.byLabel[label]; ok {
		return h
	}
	if len(m.byLabel) >= maxQueryLabels {
		return m.byLabel["other"]
	}
	h := m.reg.Histogram("rdfframes_query_task_seconds", taskHelp, nil, obs.L("query", label))
	m.byLabel[label] = h
	return h
}

// sanitizeQueryLabel bounds a client-supplied query label: printable ASCII
// without quotes or backslashes, at most 64 bytes; anything else maps to
// "other" (label values are escaped at render time, this guards semantics
// and cardinality, not syntax).
func sanitizeQueryLabel(label string) string {
	if label == "" || len(label) > 64 {
		return "other"
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return "other"
		}
	}
	return label
}

// observe records one completed data request, whatever its route and
// however it ended: status-code counter, latency histograms (successful
// responses only, so sheds and errors do not drag the latency
// distribution), and — when over threshold — the slow-query log. text is
// the request's query or update text.
func (s *Server) observe(r *http.Request, reqID string, tr *obs.Trace, code int, start time.Time, text string, out outcome) {
	elapsed := time.Since(start)
	if m := s.metrics; m != nil {
		m.countRequest(code)
		if tr != nil {
			m.traces.Inc()
		}
		if code == http.StatusOK {
			m.latency.Observe(elapsed.Seconds())
			if label := r.Header.Get(queryLabelHeader); label != "" {
				m.taskHistogram(label).Observe(elapsed.Seconds())
			}
		}
	}
	if s.slowLog.Armed() && elapsed >= s.slowLog.Threshold() {
		e := obs.SlowEntry{
			Time:         time.Now().UTC().Format(time.RFC3339Nano),
			RequestID:    reqID,
			Query:        text,
			Seconds:      elapsed.Seconds(),
			Status:       code,
			Rows:         out.rows,
			Cache:        out.cache,
			PlanDigest:   out.plan,
			StoreVersion: out.version,
		}
		if rep := tr.Report(); rep != nil {
			e.Spans, e.Annotations = rep.Spans, rep.Annotations
		}
		if out.err != nil {
			e.Error = out.err.Error()
		}
		s.slowLog.Record(e)
	}
}

// statusWriter captures the status code written to a ResponseWriter; 0
// means no response was written (client gone), reported as 499.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets an http.ResponseController reach the connection's writer,
// so a streamed export can flush.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status returns the response code, mapping "nothing written" to 499 (the
// de-facto code for client-closed-request).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return 499
	}
	return w.code
}
