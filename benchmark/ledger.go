package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"

	"rdfframes"
	"rdfframes/internal/client"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// Span names of the layer ledger. A frame call over HTTP nests as
//
//	op ⊃ core.compile, client.select, dataframe.build
//	client.select ⊃ server.handler, sparql.decode_json
//	server.handler ⊃ sparql.do, sparql.encode_json
//	sparql.do ⊃ sparql.estimate ⊃ sparql.parse
//
// and an embedded one as op ⊃ core.compile, sparql.do, dataframe.build. A
// workload's ops replay only the layers their own path crosses.
const (
	spanOp        = "op" // root of a workload op
	spanCompile   = "core.compile"
	spanUpdate    = "client.update" // refresh_rw ops only, timed in place
	spanExecute   = "frame.execute" // refresh_rw ops only, timed in place; parent of the read's replays
	spanSelect    = "client.select"
	spanHandler   = "server.handler"
	spanDo        = "sparql.do"
	spanEstimate  = "sparql.estimate"
	spanParse     = "sparql.parse"
	spanEncode    = "sparql.encode_json"
	spanDecode    = "sparql.decode_json"
	spanServeHit  = "sparql.serve_hit"
	spanBuild     = "dataframe.build"
	spanCSVStream = "dataframe.csv_stream"
	spanFeatures  = "sparql.features"
)

// ledger replays the layer calls behind a frame call, each as its own timed
// public call, on a cache-less engine over the workload's store and, when
// the workload's calls cross the client and the server, on a cache-less
// server and client of its own.
type ledger struct {
	eng *sparql.Engine // caches off
	// Set when the workload's system has a server; nil for an embedded one.
	handler http.Handler // server.New(eng), no listener
	ts      *httptest.Server
	hc      *client.HTTPClient
	sent    *sentQuery

	// Sizes seen by the replays, per op kind.
	queryBytes map[string]int
	jsonBytes  map[string]int
	csvBytes   int
	csvPeak    int
}

// sentQuery is a transport that remembers the query text of the last
// request, which is the frame's SPARQL inside the client's pagination
// wrapper: the text the server layers actually see.
type sentQuery struct {
	base http.RoundTripper
	last string
}

func (t *sentQuery) RoundTrip(r *http.Request) (*http.Response, error) {
	t.last = r.URL.Query().Get("query")
	return t.base.RoundTrip(r)
}

func newLedger(s *system) *ledger {
	l := &ledger{
		eng:        sparql.NewEngine(s.st),
		queryBytes: map[string]int{},
		jsonBytes:  map[string]int{},
	}
	if s.srv == nil {
		return l
	}
	l.handler = server.New(l.eng).Handler()
	l.ts = httptest.NewServer(l.handler)
	l.sent = &sentQuery{base: &http.Transport{}}
	l.hc = client.NewHTTPClient(l.ts.URL+"/sparql", framePageSize)
	l.hc.HTTP = &http.Client{Transport: l.sent}
	return l
}

func (l *ledger) close() {
	if l.ts != nil {
		l.ts.Close()
		l.sent.base.(*http.Transport).CloseIdleConnections()
	}
}

// serveHandler calls h in-process with the request the product client would
// send for query — no TCP — and returns the response body.
func serveHandler(h http.Handler, query string) []byte {
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Body.Bytes()
}

// replayFrameOp records under tr the layer calls of an op of the given kind
// that executes, exports or featurizes frame.
func (l *ledger) replayFrameOp(tr *tracer, kind string, frame *rdfframes.RDFFrame) {
	if kind != kindExport && kind != kindFeatures {
		l.replayExecute(tr, kind, frame)
		return
	}
	var query string
	tr.span(spanCompile, func() { query, _ = frame.ToSPARQL() })
	l.queryBytes[kind] = len(query)
	ctx := context.Background()
	switch kind {
	case kindExport:
		tr.span(spanCSVStream, func() {
			var w countWriter
			stream := dataframe.NewCSVStream(&w, 0, false)
			if _, err := l.eng.Export(ctx, query, stream); err == nil && stream.Flush() == nil {
				l.csvBytes, l.csvPeak = w.n, stream.PeakBufferBytes()
			}
		})
	case kindFeatures:
		var res *sparql.Results
		tr.span(spanFeatures, func() {
			res, _ = l.eng.Features(ctx, sparql.FeatureSpec{Query: query, Var: "sub"})
		})
		if res != nil {
			tr.span(spanBuild, func() { rdfframes.ResultsToDataFrame(res) })
		}
	}
}

// replayExecute records the layer calls of frame.Execute under tr: through
// the ledger's client and server when the workload has them, straight into
// the engine when it is embedded.
func (l *ledger) replayExecute(tr *tracer, kind string, frame *rdfframes.RDFFrame) {
	var query string
	tr.span(spanCompile, func() { query, _ = frame.ToSPARQL() })
	l.queryBytes[kind] = len(query)
	ctx := context.Background()

	// sent is the text the engine sees: the frame's SPARQL, inside the
	// client's pagination wrapper when it crossed the HTTP client.
	sent, engineParent := query, tr
	var res *sparql.Results
	var sel, handler *tracer
	if l.hc != nil {
		sel = tr.timed(spanSelect, func() { res, _ = l.hc.Select(query) })
		sent = l.sent.last
		handler = sel.timed(spanHandler, func() { serveHandler(l.handler, sent) })
		engineParent = handler
	}
	var resp *sparql.Response
	do := engineParent.timed(spanDo, func() { resp, _ = l.eng.Do(ctx, sparql.Request{Query: sent}) })
	est := do.timed(spanEstimate, func() { _, _, _ = l.eng.EstimateCost(sent) })
	est.span(spanParse, func() { _, _ = sparql.Parse(sent) })
	if resp == nil || (l.hc != nil && res == nil) {
		return // the real op fails the same way and is counted there
	}
	table := resp.Results
	if l.hc != nil {
		var body []byte
		handler.span(spanEncode, func() { body, _ = resp.Results.MarshalJSON() })
		l.jsonBytes[kind] = len(body)
		sel.span(spanDecode, func() { _, _ = sparql.ReadJSON(bytes.NewReader(body)) })
		table = res
	}
	tr.span(spanBuild, func() { rdfframes.ResultsToDataFrame(table) })
}

// replayPageOp records the layer calls of one serve_warm page request on
// the warm system itself: the point of that workload is the hit path.
func replayPageOp(tr *tracer, s *system, handler http.Handler, c *client.HTTPClient, query string) {
	sel := tr.timed(spanSelect, func() { _, _ = c.Select(query) })
	var body []byte
	h := sel.timed(spanHandler, func() { serveHandler(handler, query) })
	h.span(spanServeHit, func() {
		resp, err := s.eng.Do(context.Background(), sparql.Request{Query: query, Serving: true, JSON: true})
		if err == nil {
			body = resp.Body
		}
	})
	sel.span(spanDecode, func() { _, _ = sparql.ReadJSON(bytes.NewReader(body)) })
}
