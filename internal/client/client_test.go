package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

const g = "http://test/g"

func newEndpoint(t *testing.T, nTriples, maxRows int) string {
	t.Helper()
	st := store.New()
	for i := 0; i < nTriples; i++ {
		err := st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%04d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(sparql.NewEngine(st))
	srv.MaxRows = maxRows
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL + "/sparql"
}

func TestSelectNoPagination(t *testing.T) {
	ep := newEndpoint(t, 30, 0)
	c := NewHTTPClient(ep, 0)
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSelectPaginatesThroughServerCap(t *testing.T) {
	// Server caps responses at 10 rows; the client must still return all 47.
	ep := newEndpoint(t, 47, 10)
	c := NewHTTPClient(ep, 10)
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 47 {
		t.Fatalf("rows = %d, want 47", len(res.Rows))
	}
	// No duplicates or gaps.
	seen := map[string]bool{}
	for _, row := range res.Rows {
		key := row[0].String()
		if seen[key] {
			t.Fatalf("duplicate row %s", key)
		}
		seen[key] = true
	}
}

func TestSelectPaginationPreservesCompleteness(t *testing.T) {
	ep := newEndpoint(t, 100, 7)
	c := NewHTTPClient(ep, 7)
	res, err := c.Select(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].Value)
	}
	sort.Strings(got)
	for i, v := range got {
		want := fmt.Sprintf("http://ex/s%04d", i)
		if v != want {
			t.Fatalf("row %d = %s, want %s", i, v, want)
		}
	}
}

func TestSelectPaginatesQueriesWithPrefixes(t *testing.T) {
	ep := newEndpoint(t, 20, 6)
	c := NewHTTPClient(ep, 6)
	res, err := c.Select(`PREFIX ex: <http://ex/>
SELECT * WHERE { ?s ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Rows))
	}
}

func TestSelectReportsEndpointError(t *testing.T) {
	ep := newEndpoint(t, 5, 0)
	c := NewHTTPClient(ep, 0)
	if _, err := c.Select(`NOT A QUERY`); err == nil {
		t.Fatal("endpoint error not propagated")
	}
}

func TestSelectRetriesTransientErrors(t *testing.T) {
	var calls atomic.Int32
	inner := newEndpoint(t, 5, 0)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		resp, err := http.Get(inner + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			w.Write(buf[:n])
			if err != nil {
				break
			}
		}
	}))
	defer flaky.Close()
	c := NewHTTPClient(flaky.URL, 0)
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || calls.Load() != 2 {
		t.Fatalf("rows=%d calls=%d", len(res.Rows), calls.Load())
	}
}

func TestSelectDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad query", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, 0)
	if _, err := c.Select(`whatever`); err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on 4xx)", calls.Load())
	}
}

func TestSelectViaPost(t *testing.T) {
	ep := newEndpoint(t, 12, 0)
	c := NewHTTPClient(ep, 0)
	c.UsePost = true
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestDirectClient(t *testing.T) {
	st := store.New()
	st.Add(g, rdf.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("v")})
	d := NewDirect(sparql.NewEngine(st))
	res, err := d.Select(`SELECT * WHERE { ?s ?p ?o }`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestSplitPrologue(t *testing.T) {
	prologue, body := splitPrologue(`PREFIX a: <http://a/>
 PREFIX b: <http://b/>
SELECT * WHERE { ?s a:p ?o }`)
	if !strings.Contains(prologue, "http://a/") || !strings.Contains(prologue, "http://b/") {
		t.Fatalf("prologue = %q", prologue)
	}
	if !strings.HasPrefix(body, "SELECT") {
		t.Fatalf("body = %q", body)
	}
	// No prologue at all.
	p2, b2 := splitPrologue("SELECT * WHERE { ?s ?p ?o }")
	if p2 != "" || !strings.HasPrefix(b2, "SELECT") {
		t.Fatalf("p2=%q b2=%q", p2, b2)
	}
}

func TestPaginateWrapsWithLimitOffset(t *testing.T) {
	for _, src := range []string{
		"SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s",
		"# c\nPREFIX ex: <http://ex/>\nSELECT * WHERE { ?s ex:p ?o }",
		"PREFIX ex: <http://ex/> # c\n# d\nPREFIX ey: <http://ey/>\nSELECT * WHERE { ?s ex:p ?o . ?o ey:q ?x }",
	} {
		if _, err := sparql.Parse(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		q := paginate(src, 10, 20)
		if !strings.HasSuffix(q, "LIMIT 10 OFFSET 20") {
			t.Fatalf("q = %q", q)
		}
		if _, err := sparql.Parse(q); err != nil {
			t.Fatalf("paginated query does not parse: %v\n%s", err, q)
		}
	}
}

// TestSelectDecodesGzipResponses drives the client through a gzip-encoded
// round trip with a transport whose automatic decompression is disabled,
// exercising the client's own Content-Encoding handling.
func TestSelectDecodesGzipResponses(t *testing.T) {
	ep := newEndpoint(t, 30, 0)
	c := NewHTTPClient(ep, 10)
	c.HTTP = &http.Client{Transport: &gzipForcingTransport{}}
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// gzipForcingTransport requests gzip explicitly, which stops net/http from
// transparently decompressing and leaves Content-Encoding visible.
type gzipForcingTransport struct{}

func (gzipForcingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.Header.Get("Content-Encoding") == "" {
		return nil, fmt.Errorf("test transport: endpoint did not gzip")
	}
	return resp, err
}

// TestFetchesReuseOneConnection: a client from NewHTTPClient holds one
// http.Client for its lifetime, so consecutive fetches ride one keep-alive
// connection instead of dialling per request.
func TestFetchesReuseOneConnection(t *testing.T) {
	c := NewHTTPClient(newEndpoint(t, 30, 0), 10)
	if c.HTTP == nil {
		t.Fatal("NewHTTPClient left HTTP nil")
	}
	first := c.HTTP
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
	c = c.WithContext(httptrace.WithClientTrace(context.Background(), trace))
	res, err := c.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`) // four pages
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 || len(reused) != 4 {
		t.Fatalf("rows = %d over %d fetches, want 30 over 4", len(res.Rows), len(reused))
	}
	for i, r := range reused[1:] {
		if !r {
			t.Fatalf("fetch %d dialled a new connection (reused: %v)", i+2, reused)
		}
	}
	if c.HTTP != first {
		t.Fatal("the client's http.Client changed between fetches")
	}
	// A literal-constructed client still works through the lazy fallback.
	lit := &HTTPClient{Endpoint: c.Endpoint}
	if res, err := lit.Select(`SELECT * WHERE { ?s <http://ex/p> ?o }`); err != nil || len(res.Rows) != 30 {
		t.Fatalf("literal client: %d rows, %v", len(res.Rows), err)
	}
}
