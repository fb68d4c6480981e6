package sparql

import (
	"context"
	"io"
	"slices"

	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
)

// Engine.Do and Engine.Stream are the read side's only entry points: one
// options struct in, one Response out, for the HTTP server, the in-process
// client and tests alike (Update is the write side's).

// Request describes one query request.
type Request struct {
	// Query is the SPARQL text.
	Query string
	// Serving routes the request through the result cache: pagination-aware
	// key normalization and singleflight stampede protection. Off — or with
	// the result cache disabled — the request evaluates directly. Both paths
	// go through the engine's plan cache.
	Serving bool
	// JSON asks Do for the SPARQL JSON serialization in Response.Body.
	JSON bool
	// MaxRows caps the returned page at this many rows (0 = no cap),
	// reporting the cut in Response.Truncated.
	MaxRows int
}

// Response is the answer to one Request.
type Response struct {
	// Results holds the decoded solutions. Nil when JSON was requested (the
	// page is serialized from the engine's compact form without
	// materializing terms) and on a Stream response (Table reads the page
	// without decoding it).
	Results *Results
	// Body is the SPARQL JSON serialization of a JSON request through Do.
	Body []byte
	// Rows is the number of rows in the returned page.
	Rows int
	// Truncated reports that MaxRows cut the page short.
	Truncated bool
	// Info describes how the request was answered (cache outcome, store
	// version, plan digest).
	Info ServeInfo

	// The page itself: rows [lo, hi) of entry's compact result.
	entry  *cachedResult
	lo, hi int
	trace  *obs.Trace
}

// Do executes one query request; see Request for the knobs. Cancellation
// (or a deadline) on ctx stops the evaluation — including any morsel
// workers it fanned out — within one tick window.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	resp, err := e.Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	if !req.JSON {
		resp.Results = resp.entry.res.results(resp.lo, resp.hi)
		return resp, nil
	}
	defer resp.trace.StartSpan("encode")()
	resp.Body = resp.entry.res.marshalJSON(resp.lo, resp.hi)
	return resp, nil
}

// Stream is Do for a caller that writes the page to a writer itself (the
// HTTP server): it evaluates the request, or finds it in the cache, and
// fixes the page — everything about the response but its serialization. So
// errors and the response metadata (Rows, Truncated, Info) are known before
// the first byte is written, and no store lock is held. Neither Results nor
// Body is filled: the page stays in the engine's compact form until
// WriteJSON or WriteTable encodes it in chunks, so a large result is never
// held as one body. A trace carried by ctx records the request's spans and
// annotations.
func (e *Engine) Stream(ctx context.Context, req Request) (*Response, error) {
	tr := obs.TraceFrom(ctx)
	resp := &Response{trace: tr}
	q, qp, err := e.planned(ctx, req.Query)
	if err != nil {
		return nil, err
	}
	resp.Info.PlanDigest = qp.planDigest()
	tr.Annotate("plan_digest", resp.Info.PlanDigest)
	limit, offset := -1, 0 // an evaluation applies them itself
	if req.Serving && e.results != nil && !q.Explain {
		// EXPLAIN output depends on live actual cardinalities; it bypasses
		// the result cache and dies with the request.
		if resp.entry, err = e.serve(ctx, req.Query, q, qp, &resp.Info); err != nil {
			return nil, err
		}
		limit, offset = q.Limit, q.Offset
	} else {
		res, version, err := e.evaluate(ctx, tr, req.Query, q, qp)
		if err != nil {
			return nil, err
		}
		resp.entry = &cachedResult{version: version, res: res}
		resp.Info.StoreVersion = version
	}
	resp.lo, resp.hi = pageBounds(resp.entry.res.n, limit, offset)
	if req.MaxRows > 0 && resp.hi-resp.lo > req.MaxRows {
		resp.hi = resp.lo + req.MaxRows
		resp.Truncated = true
	}
	resp.Rows = resp.hi - resp.lo
	return resp, nil
}

// WriteJSON writes the response's page to w as one SPARQL JSON document,
// encoded in chunks straight into w.
func (r *Response) WriteJSON(w io.Writer) error {
	defer r.trace.StartSpan("encode")()
	return r.entry.res.writeJSON(w, r.lo, r.hi)
}

// Table returns the page in the engine's compact form: the variables, the
// result's term table (terms[0] is the unbound term, and the table may hold
// more terms than the page uses) and the page's Rows rows as row-major cells
// indexing it. The slices are shared with the result, which a cache may
// serve to later requests: they are read-only, and capped so that an append
// to any of them copies.
func (r *Response) Table() (vars []string, terms []rdf.Term, cells []uint32) {
	c := r.entry.res
	w := len(c.vars)
	return slices.Clip(c.vars), slices.Clip(c.terms), c.cells[r.lo*w : r.hi*w : r.hi*w]
}
