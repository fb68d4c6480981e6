package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/obs"
	"rdfframes/internal/sparql"
)

// Feature-extraction endpoints: /v1/export streams a query result as
// chunked CSV with bounded server memory (the engine decodes one row at a
// time into the chunk buffer — the full frame is never materialized), and
// /v1/features answers store-side topology features for the nodes a query
// selects. Both run the request pipeline of /v1/query.

// checkExport rejects an export format other than csv.
func checkExport(r *http.Request) error {
	if f := r.Form.Get("format"); f != "" && f != "csv" {
		return fmt.Errorf("unsupported export format %q (only csv)", f)
	}
	return nil
}

// answerExport streams a query result as CSV. Parameters: query (the
// SELECT text), full=1 for N-Triples term syntax per cell instead of
// plain values, format (only "csv"). Chunks are flushed to the client as
// they fill; the server's buffered memory stays bounded by one chunk
// regardless of result size.
func (s *Server) answerExport(w http.ResponseWriter, r *http.Request, query string, _ *obs.Trace) outcome {
	stream := dataframe.NewCSVStream(w, s.ExportChunkBytes, r.Form.Get("full") == "1")
	rc := http.NewResponseController(w)
	stream.SetFlushHook(func() error { rc.Flush(); return nil })
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	rows, err := s.Engine.Export(r.Context(), query, stream)
	if err == nil {
		err = stream.Flush()
	}
	return outcome{rows: rows, err: err}
}

// hopCap reads the features cap parameter: the 2-hop count bound, 0 (the
// server default) when absent.
func hopCap(r *http.Request) (int, error) {
	c := r.Form.Get("cap")
	if c == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(c)
	if err != nil {
		return 0, errors.New("invalid cap parameter")
	}
	return n, nil
}

// checkFeatures rejects a cap parameter that is not an integer.
func checkFeatures(r *http.Request) error {
	_, err := hopCap(r)
	return err
}

// answerFeatures answers topology features for the nodes a query selects,
// in the SPARQL JSON results format or, when Accept lists it, as a table
// body (sparql.TableMediaType). Parameters: query (node-selecting
// SELECT), var (the variable holding the nodes; default first projected),
// cap (2-hop count bound; default sparql.DefaultHopCap, -1 unbounded).
func (s *Server) answerFeatures(w http.ResponseWriter, r *http.Request, query string, _ *obs.Trace) outcome {
	n, _ := hopCap(r) // checked before admission
	res, err := s.Engine.Features(r.Context(), sparql.FeatureSpec{Query: query, Var: r.Form.Get("var"), HopCap: n})
	if err != nil {
		return outcome{err: err}
	}
	write := res.WriteJSON
	if negotiate(w, r) == sparql.TableMediaType {
		write = res.WriteTable
	}
	return outcome{rows: len(res.Rows), err: s.writeBody(w, r, write)}
}
