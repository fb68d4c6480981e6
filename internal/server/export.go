package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/sparql"
)

// Feature-extraction endpoints: /v1/export streams a query result as
// chunked CSV with bounded server memory (the engine decodes one row at a
// time into the chunk buffer — the full frame is never materialized), and
// /v1/features answers store-side topology features for the nodes a query
// selects. Both go through the same admission gates as /v1/query.

// readQuery extracts the query parameter of a query, export or features
// request: GET ?query=, a POST form field, or a raw application/sparql-query
// body. A false return means the rejection response has already been
// written.
func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (string, bool) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		limit := s.MaxBodyBytes
		if limit <= 0 {
			limit = defaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				s.rejectBody(w, err, limit)
				return "", false
			}
			query = string(body)
		} else {
			if err := r.ParseForm(); err != nil {
				s.rejectBody(w, err, limit)
				return "", false
			}
			query = r.PostForm.Get("query")
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return "", false
	}
	if query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return "", false
	}
	return query, true
}

// formParam reads a request parameter from the URL query or, for form
// POSTs, the parsed form.
func formParam(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.PostForm.Get(name)
}

// countWriter counts bytes that actually reached the client, so an export
// error can still become a clean HTTP error when nothing was sent yet.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleExport streams a query result as CSV. Parameters: query (the
// SELECT text), full=1 for N-Triples term syntax per cell instead of
// plain values, format (only "csv" today — the writer interface is framed
// so Arrow IPC can slot in). Chunks are flushed to the client as they
// fill; the server's buffered memory stays bounded by one chunk
// regardless of result size.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	query, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	requestID(w, r)
	if f := formParam(r, "format"); f != "" && f != "csv" {
		http.Error(w, fmt.Sprintf("unsupported export format %q (only csv)", f), http.StatusBadRequest)
		return
	}

	release, admitted := s.admit(r.Context(), w, query)
	if !admitted {
		return
	}
	defer release()

	cw := &countWriter{w: w}
	stream := dataframe.NewCSVStream(cw, s.ExportChunkBytes, formParam(r, "full") == "1")
	if fl, canFlush := w.(http.Flusher); canFlush {
		stream.SetFlushHook(func() error { fl.Flush(); return nil })
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	rows, err := s.Engine.Export(r.Context(), query, stream)
	if err != nil {
		if cw.n > 0 && !errors.Is(err, context.Canceled) {
			// The status line is gone; all we can do is cut the stream.
			s.logf("export aborted mid-stream after %d rows: %v", rows, err)
			return
		}
		s.evalFailed(w, "export", err, start)
		return
	}
	if err := stream.Flush(); err != nil {
		s.logf("export flush error: %v", err)
		return
	}
	s.logf("export ok: %d rows in %v (peak buffer %dB)", rows, time.Since(start), stream.PeakBufferBytes())
}

// handleFeatures answers topology features for the nodes a query selects,
// in the SPARQL JSON results format or, when Accept lists it, as a table
// body (sparql.TableMediaType). Parameters: query (node-selecting
// SELECT), var (the variable holding the nodes; default first projected),
// cap (2-hop count bound; default sparql.DefaultHopCap, -1 unbounded).
func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	query, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	requestID(w, r)
	spec := sparql.FeatureSpec{Query: query, Var: formParam(r, "var")}
	if c := formParam(r, "cap"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil {
			http.Error(w, "invalid cap parameter", http.StatusBadRequest)
			return
		}
		spec.HopCap = n
	}

	release, admitted := s.admit(r.Context(), w, query)
	if !admitted {
		return
	}
	defer release()

	res, err := s.Engine.Features(r.Context(), spec)
	if err != nil {
		s.evalFailed(w, "features", err, start)
		return
	}
	write := res.WriteJSON
	if negotiate(w, r) == sparql.TableMediaType {
		write = res.WriteTable
	}
	if err := s.writeBody(w, r, write); err != nil {
		s.logf("features write error: %v", err)
		return
	}
	s.logf("features ok: %d rows in %v", len(res.Rows), time.Since(start))
}
