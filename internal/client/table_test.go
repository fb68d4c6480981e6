package client

import (
	"compress/gzip"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// bodyTransport checks that every results response comes in one body. For
// SPARQL-JSON it drops the Accept header first, as a client that does not
// know the table body sends none.
type bodyTransport struct{ mediaType string }

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if b.mediaType != sparql.TableMediaType {
		r = r.Clone(r.Context())
		r.Header.Del("Accept")
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") != b.mediaType {
		resp.Body.Close()
		return nil, fmt.Errorf("answered with %q, want %q", resp.Header.Get("Content-Type"), b.mediaType)
	}
	return resp, err
}

var bothBodies = []string{sparql.TableMediaType, "application/sparql-results+json"}

// TestHTTPFrameKeepsOrderBy: a paginated read of an ordered query comes back
// in the order it asked for, not the engine's canonical order, and a query
// with a LIMIT/OFFSET of its own comes back as that window, at every page
// size, from a server with and without the result cache, over either body.
func TestHTTPFrameKeepsOrderBy(t *testing.T) {
	st := frameStore(t, 300)
	const ordered = `SELECT ?s ?o ?l WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/l> ?l } } ORDER BY DESC(?o) ?s`
	direct := NewDirect(sparql.NewEngine(st))
	canonical, err := direct.Frame(optionalLabelsUnordered)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		ordered,
		ordered + " LIMIT 250 OFFSET 13",
		optionalLabelsUnordered + " LIMIT 250 OFFSET 13",
		ordered + " LIMIT 0",
		ordered + " OFFSET 1000",
	}
	wants := make([]*dataframe.DataFrame, len(queries))
	for i, q := range queries {
		if wants[i], err = direct.Frame(q); err != nil {
			t.Fatal(err)
		}
	}
	if sameTable(wants[0], canonical) == nil {
		t.Fatal("the requested order is the canonical one, so no order is checked")
	}
	for _, cached := range []bool{false, true} {
		eng := sparql.NewEngine(st)
		if cached {
			eng.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
		}
		ts := httptest.NewServer(server.New(eng).Handler())
		t.Cleanup(ts.Close)
		for _, body := range bothBodies {
			for _, pageSize := range []int{0, 1, 7, 100_000} {
				c := NewHTTPClient(ts.URL+"/sparql", pageSize)
				c.HTTP = &http.Client{Transport: bodyTransport{body}}
				for i, q := range queries {
					got, err := c.Frame(q)
					if err != nil {
						t.Fatalf("cache %v, %s, page size %d, %q: %v", cached, body, pageSize, q, err)
					}
					if err := sameTable(got, wants[i]); err != nil {
						t.Errorf("cache %v, %s, page size %d, %q: %v", cached, body, pageSize, q, err)
					}
				}
			}
		}
	}
}

// TestFeaturesOverEitherBody: Features reads the table body and SPARQL-JSON
// alike, into the rows the in-process client computes.
func TestFeaturesOverEitherBody(t *testing.T) {
	st := frameStore(t, 40)
	want, err := NewDirect(sparql.NewEngine(st)).Features(optionalLabelsUnordered, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sparql.NewEngine(st)).Handler())
	t.Cleanup(ts.Close)
	for _, body := range bothBodies {
		c := NewHTTPClient(ts.URL+"/sparql", 0)
		c.HTTP = &http.Client{Transport: bodyTransport{body}}
		got, err := c.Features(optionalLabelsUnordered, "s", 0)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if canonJSON(t, got) != canonJSON(t, want) {
			t.Errorf("%s: features differ from the in-process ones", body)
		}
	}
}

// TestExplainViaPost: Explain builds its request like Select does, so
// UsePost sends it as a form and it carries an X-Request-ID.
func TestExplainViaPost(t *testing.T) {
	st := frameStore(t, 20)
	h := server.New(sparql.NewEngine(st)).Handler()
	var method, reqID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method, reqID = r.Method, r.Header.Get("X-Request-ID")
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewHTTPClient(ts.URL+"/sparql", 0)
	c.UsePost = true
	rep, err := c.Explain(optionalLabelsUnordered)
	if err != nil {
		t.Fatal(err)
	}
	if method != http.MethodPost || reqID == "" {
		t.Errorf("Explain sent %s with X-Request-ID %q, want POST with an id", method, reqID)
	}
	if rep.Rows != 20 {
		t.Errorf("the plan reports %d rows, want 20", rep.Rows)
	}
}

// TestGzipReadersAreReused: concurrent reads share the free list of gzip
// readers, a decompressed response hands its reader back, and the next
// response takes it from there.
func TestGzipReadersAreReused(t *testing.T) {
	st := frameStore(t, 20)
	ts := httptest.NewServer(server.New(sparql.NewEngine(st)).Handler())
	t.Cleanup(ts.Close)
	for gzipReaders.Get() != nil {
	}
	c := NewHTTPClient(ts.URL+"/sparql", 0)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				if res, err := c.Select(optionalLabelsUnordered); err != nil || res.Len() != 20 {
					t.Errorf("concurrent Select: %v, %v", res, err)
				}
			}
		}()
	}
	wg.Wait()
	for gzipReaders.Get() != nil {
	}
	var last *gzip.Reader
	for i := range 3 {
		res, err := c.Select(optionalLabelsUnordered)
		if err != nil || res.Len() != 20 {
			t.Fatalf("%v, %v", res, err)
		}
		gz := gzipReaders.Get()
		if gz == nil || (last != nil && gz != last) {
			t.Fatalf("request %d left reader %p in the free list, want the one before, %p", i+1, gz, last)
		}
		gzipReaders.Put(gz)
		last = gz
	}
	var exported strings.Builder
	if _, err := c.Export(optionalLabelsUnordered, &exported); err != nil || !strings.HasPrefix(exported.String(), "s,o,l") {
		t.Fatalf("export %q, %v", exported.String(), err)
	}
}
