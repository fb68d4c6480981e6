package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

const g = "http://test/g"

func newTestServer(t *testing.T, maxRows int) (*httptest.Server, *store.Store) {
	t.Helper()
	st := store.New()
	for i := 0; i < 25; i++ {
		err := st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := New(sparql.NewEngine(st))
	srv.MaxRows = maxRows
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

func get(t *testing.T, ts *httptest.Server, query string) (*http.Response, *sparql.Results) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	res, err := sparql.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, res
}

func TestServerBasicQuery(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, res := get(t, ts, `SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type = %q", ct)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestServerTruncatesAtMaxRows(t *testing.T) {
	ts, _ := newTestServer(t, 10)
	resp, res := get(t, ts, `SELECT * WHERE { ?s <http://ex/p> ?o }`)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	if resp.Header.Get("X-Truncated") != "true" {
		t.Fatal("missing truncation header")
	}
}

func TestServerPostForm(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {`SELECT * WHERE { ?s <http://ex/p> ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err := sparql.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestServerPostRawSPARQL(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	body := strings.NewReader(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerRejectsBadQuery(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, _ := get(t, ts, `THIS IS NOT SPARQL`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerMissingQueryParam(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerTimeoutStatus(t *testing.T) {
	st := store.New()
	for i := 0; i < 500; i++ {
		st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i%5)),
		})
	}
	eng := sparql.NewEngine(st)
	eng.SetTimeout(time.Nanosecond)
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

func TestServerRejectsOversizedRawBody(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	big := strings.Repeat("x", 2048)
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d for in-limit body", resp.StatusCode)
	}

	// Lower the cap below the body size: the server must answer 413, not
	// read the stream to exhaustion.
	st := store.New()
	srv := New(sparql.NewEngine(st))
	srv.MaxBodyBytes = 1024
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/sparql", "application/sparql-query", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp2.StatusCode)
	}
}

func TestServerRejectsOversizedFormBody(t *testing.T) {
	st := store.New()
	srv := New(sparql.NewEngine(st))
	srv.MaxBodyBytes = 512
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	form := url.Values{"query": {strings.Repeat("y", 4096)}}
	resp, err := http.PostForm(ts.URL+"/sparql", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestServerPostRawSPARQLWithCharsetParam(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	body := strings.NewReader(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query; charset=utf-8", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerStats(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		StoreVersion uint64 `json:"store_version"`
		Graphs       []struct {
			Graph   string `json:"graph"`
			Triples int    `json:"triples"`
		} `json:"graphs"`
		Cache struct {
			Enabled bool `json:"enabled"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Graphs) != 1 || stats.Graphs[0].Triples != 25 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.StoreVersion == 0 {
		t.Fatal("store version missing from stats")
	}
	if stats.Cache.Enabled {
		t.Fatal("cache reported enabled on an uncached server")
	}
}

func TestServerHealth(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// writeLocker is a ResponseWriter whose every Write first mutates the store
// (taking its write lock), as an update arriving while a client is stalled
// mid-body would.
type writeLocker struct {
	*httptest.ResponseRecorder
	st     *store.Store
	writes int
}

func (w *writeLocker) Write(p []byte) (int, error) {
	w.writes++
	err := w.st.Add(g, rdf.Triple{
		S: rdf.NewIRI("http://ex/written"),
		P: rdf.NewIRI("http://ex/during"),
		O: rdf.NewInteger(int64(w.writes)),
	})
	if err != nil {
		return 0, err
	}
	return w.ResponseRecorder.Write(p)
}

// TestNoStoreLockHeldWhileWriting: the result endpoints finish evaluating,
// and release the store read lock, before the first body byte — a writer
// that needs the write lock would otherwise deadlock the request.
func TestNoStoreLockHeldWhileWriting(t *testing.T) {
	_, st := newTestServer(t, 0)
	srv := New(sparql.NewEngine(st))
	srv.ExportChunkBytes = 64 // several chunks: the export writes while rows are still streaming
	h := srv.Handler()
	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	for _, target := range []string{"/v1/query?query=" + q, "/v1/features?var=s&query=" + q, "/v1/export?query=" + q} {
		for _, enc := range []string{"", "gzip"} {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("Accept-Encoding", enc)
			w := &writeLocker{ResponseRecorder: httptest.NewRecorder(), st: st}
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(w, req)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s (Accept-Encoding %q): handler wrote its body under the store read lock", target, enc)
			}
			if w.Code != http.StatusOK || w.writes == 0 || strings.HasPrefix(target, "/v1/export") && w.writes < 2 {
				t.Fatalf("%s: status %d after %d writes", target, w.Code, w.writes)
			}
		}
	}
}
