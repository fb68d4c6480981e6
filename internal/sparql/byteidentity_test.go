package sparql_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"rdfframes/internal/bench"
	"rdfframes/internal/obs"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// TestStreamedBodiesByteIdentical is the wire gate of the one-pass result
// path: for every query of the paper's small-scale suite, the body the
// server streams equals, byte for byte, what the previous whole-body encoder
// produced for the rows an embedded Do returns — compressed or not, from a
// cache-less engine, a cache miss and a cache hit, truncated by the server's
// row cap, and (up to the trailer) with the trace annex attached.
func TestStreamedBodiesByteIdentical(t *testing.T) {
	env, err := bench.NewEnv(bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	serve := func(cached bool, maxRows int) string {
		eng := sparql.NewEngine(env.Store)
		if cached {
			eng.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
		}
		srv := server.New(eng)
		srv.MaxRows = maxRows
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL + "/sparql?query="
	}
	const rowCap = 7
	cacheOff, cacheOn, capped := serve(false, 0), serve(true, 0), serve(false, rowCap)

	// No transparent decompression: the test reads what is on the wire.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	get := func(target string, gz bool) (http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := io.Reader(resp.Body)
		if gz {
			if resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("asked for gzip, got Content-Encoding %q", resp.Header.Get("Content-Encoding"))
			}
			if body, err = gzip.NewReader(resp.Body); err != nil {
				t.Fatal(err)
			}
		} else if resp.Header.Get("Content-Encoding") != "" {
			t.Fatalf("unasked Content-Encoding %q", resp.Header.Get("Content-Encoding"))
		}
		data, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return resp.Header, data
	}

	for _, task := range append(bench.CaseStudies(), bench.Synthetic()...) {
		query, err := task.Frame(env).ToSPARQL()
		if err != nil {
			t.Fatal(err)
		}
		embedded, err := env.Engine.Do(context.Background(), sparql.Request{Query: query})
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		want := sparql.ReferenceMarshalJSON(embedded.Results)
		q := url.QueryEscape(query)

		for _, gz := range []bool{false, true} {
			if _, got := get(cacheOff+q, gz); !bytes.Equal(got, want) {
				t.Fatalf("%s gzip=%v: cache-less body differs from the reference encoding", task.ID, gz)
			}
			for _, outcome := range []string{"miss", "hit"} {
				if gz {
					outcome = "hit" // the plain pass filled the cache
				}
				hdr, got := get(cacheOn+q, gz)
				if hdr.Get("X-Cache") != outcome {
					t.Fatalf("%s gzip=%v: X-Cache %q, want %q", task.ID, gz, hdr.Get("X-Cache"), outcome)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s gzip=%v: cache %s body differs from the reference encoding", task.ID, gz, outcome)
				}
			}

			cut := embedded.Results
			if len(cut.Rows) > rowCap {
				cut = &sparql.Results{Vars: cut.Vars, Rows: cut.Rows[:rowCap]}
			}
			hdr, got := get(capped+q, gz)
			if truncated := hdr.Get("X-Truncated") == "true"; truncated != (len(embedded.Results.Rows) > rowCap) {
				t.Fatalf("%s: X-Truncated %v for %d rows under a cap of %d", task.ID, truncated, len(embedded.Results.Rows), rowCap)
			}
			if !bytes.Equal(got, sparql.ReferenceMarshalJSON(cut)) {
				t.Fatalf("%s gzip=%v: capped body differs from the reference encoding of the first %d rows", task.ID, gz, rowCap)
			}

			// Traced, from the cache-less engine (streamed) and from the
			// cache (page memo): the untraced bytes up to the closing brace,
			// then the annex as the last member.
			for _, endpoint := range []string{cacheOff, cacheOn} {
				_, got := get(endpoint+q+"&trace=1", gz)
				prefix := want[:len(want)-1]
				if !bytes.HasPrefix(got, prefix) {
					t.Fatalf("%s gzip=%v: traced body does not start with the untraced bytes", task.ID, gz)
				}
				var annex struct {
					Trace *obs.TraceReport `json:"trace"`
				}
				trailer := append([]byte("{"), bytes.TrimPrefix(got[len(prefix):], []byte(","))...)
				if err := json.Unmarshal(trailer, &annex); err != nil || annex.Trace == nil || len(annex.Trace.Spans) == 0 {
					t.Fatalf("%s gzip=%v: malformed trace trailer %q (%v)", task.ID, gz, got[len(prefix):], err)
				}
				if !json.Valid(got) {
					t.Fatalf("%s gzip=%v: traced body is not valid JSON", task.ID, gz)
				}
			}
		}
	}
}
