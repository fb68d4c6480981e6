package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"sort"
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

// pageCase is one page cut by pageOf: the query, the page's size and
// offset, and the window the page must carry.
type pageCase struct {
	src                   string
	size, offset          int
	wantLimit, wantOffset int
}

// checkPages: a page is the query cut at its own LIMIT/OFFSET with the
// page's window inside the query's, and it parses to the query with that
// window and nothing else changed.
func checkPages(t *testing.T, cases []pageCase) {
	t.Helper()
	for _, tc := range cases {
		q, err := sparql.Parse(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		page := pageOf(tc.src, q, tc.size, tc.offset)
		got, err := sparql.Parse(page)
		if err != nil {
			t.Fatalf("page of %q does not parse: %v\n%s", tc.src, err, page)
		}
		want := *q
		want.Limit, want.Offset, want.Window = tc.wantLimit, tc.wantOffset, q.Window+1
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("page %q parses to\n%+v\nwant\n%+v", page, got, &want)
		}
	}
}

// TestPaginateWrapsWithLimitOffset: a page's window is intersected with
// the query's own LIMIT/OFFSET, in either order, with LIMIT 0, an OFFSET
// past the end, a trailing comment, and EXPLAIN.
func TestPaginateWrapsWithLimitOffset(t *testing.T) {
	const where = "SELECT ?s FROM <http://g> WHERE { ?s ?p ?o } ORDER BY ?s"
	checkPages(t, []pageCase{
		{where, 10, 20, 10, 20},
		{where + " LIMIT 25", 10, 20, 5, 20},
		{where + " LIMIT 25 OFFSET 3", 10, 0, 10, 3},
		{where + " OFFSET 3 LIMIT 25", 10, 20, 5, 23},
		{where + " OFFSET 3", 10, 20, 10, 23},
		{where + " LIMIT 0", 10, 0, 0, 0},
		{where + " OFFSET 1000000", 10, 10, 10, 1000010},
		{"SELECT * WHERE { ?s ?p ?o } # no LIMIT here", 7, 7, 7, 7},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT 9 # the frame's own", 7, 7, 2, 7},
		{"EXPLAIN SELECT * WHERE { ?s ?p ?o }", 7, 7, 7, 7},
	})
}

// TestSplitPrologue: PREFIX declarations, with comments before and
// between them, stay where the query put them and the page still parses.
func TestSplitPrologue(t *testing.T) {
	checkPages(t, []pageCase{
		{"PREFIX a: <http://a/>\n PREFIX b: <http://b/>\nSELECT * WHERE { ?s a:p ?o . ?o b:q ?x }", 10, 20, 10, 20},
		{"# c\nPREFIX ex: <http://ex/>\nSELECT * WHERE { ?s ex:p ?o }", 7, 0, 7, 0},
		{"PREFIX ex: <http://ex/> # c\n# d\nPREFIX ey: <http://ey/>\nSELECT * WHERE { ?s ex:p ?o . ?o ey:q ?x }", 7, 14, 7, 14},
	})
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
