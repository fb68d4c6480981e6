package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"rdfframes"
	"rdfframes/internal/client"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// TestFramePathsAgree: every way a client builds a task's frame yields the
// same table — the in-process client adopting the engine's compact result,
// the HTTP client paginating at 1, 7 and 100,000 rows a page over the table
// body and over SPARQL-JSON, and the decoded Results view converted by
// ResultsToDataFrame: the same columns, and the same term in every cell of
// every row in the same order, unbound cells of OPTIONALs and full outer
// joins included. Besides the tasks there is a sorted frame, whose
// requested order is not the engine's canonical one and must survive
// pagination. One-row pages cost a round trip a row, so they are
// read only for results of up to onePageRowsMax rows (16 of the 19 frames;
// cs1, cs3 and Q13 are longer).
func TestFramePathsAgree(t *testing.T) {
	const onePageRowsMax = 1000
	env := sharedEnv(t)
	cached := sparql.NewEngine(env.Store)
	cached.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
	ts := httptest.NewServer(server.New(cached).Handler())
	defer ts.Close()
	store := rdfframes.ConnectStore(env.Store)
	clients := map[string]rdfframes.Client{"ConnectStore": store}
	for _, size := range []int{1, 7, 100_000} {
		clients[fmt.Sprintf("ConnectHTTP page %d", size)] = rdfframes.ConnectHTTP(ts.URL+"/sparql", size)
		c := client.NewHTTPClient(ts.URL+"/sparql", size)
		c.HTTP = &http.Client{Transport: jsonOnly{}}
		clients[fmt.Sprintf("ConnectHTTP page %d, JSON", size)] = c
	}
	sorted := &Task{ID: "cs3 sorted", Frame: func(env *Env) *rdfframes.RDFFrame {
		return kgEmbeddingTask().Frame(env).Sort(rdfframes.Desc("sub")).Head(300)
	}}
	unbound := 0
	for _, task := range append(CaseStudies(), append(Synthetic(), sorted)...) {
		frame := task.Frame(env)
		query, err := frame.ToSPARQL()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		res, err := store.Select(query)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		want := rdfframes.ResultsToDataFrame(res)
		if want.Len() == 0 {
			t.Fatalf("%s: empty at small scale", task.ID)
		}
		if task == sorted && isSorted(want, "sub") {
			t.Fatalf("%s: the requested order is the canonical one, so no order is checked", task.ID)
		}
		for name, c := range clients {
			if name == "ConnectHTTP page 1" && want.Len() > onePageRowsMax {
				continue
			}
			got, err := frame.Execute(c)
			if err != nil {
				t.Fatalf("%s through %s: %v", task.ID, name, err)
			}
			if err := sameFrame(got, want); err != nil {
				t.Errorf("%s through %s: %v", task.ID, name, err)
			}
		}
		for _, col := range want.Columns() {
			for i := 0; i < want.Len(); i++ {
				if !want.Cell(i, col).IsBound() {
					unbound++
				}
			}
		}
	}
	if unbound == 0 {
		t.Error("no task has an unbound cell at small scale, so none was compared")
	}
}

// isSorted reports whether col ascends down the frame.
func isSorted(df *dataframe.DataFrame, col string) bool {
	for i := 1; i < df.Len(); i++ {
		if rdf.Compare(df.Cell(i-1, col), df.Cell(i, col)) > 0 {
			return false
		}
	}
	return true
}

// jsonOnly is the transport of a client that does not know the table body:
// it drops the Accept header, so the server answers SPARQL-JSON.
type jsonOnly struct{}

func (jsonOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Del("Accept")
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.Header.Get("Content-Type") != "application/sparql-results+json" {
		resp.Body.Close()
		return nil, fmt.Errorf("a request without Accept was answered with %q", resp.Header.Get("Content-Type"))
	}
	return resp, err
}

// sameFrame reports how got differs from want, cell by cell in row order.
func sameFrame(got, want *dataframe.DataFrame) error {
	if !slices.Equal(got.Columns(), want.Columns()) || got.Len() != want.Len() {
		return fmt.Errorf("%v × %d rows, want %v × %d", got.Columns(), got.Len(), want.Columns(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for _, col := range want.Columns() {
			if g, w := got.Cell(i, col), want.Cell(i, col); g != w {
				return fmt.Errorf("row %d, %s = %v, want %v", i, col, g, w)
			}
		}
	}
	return nil
}

// TestPaginatedReadEvaluatesOnce: an HTTP client paging through the largest
// Figure-5 result of a caching server costs one evaluation — the first page
// misses the result cache, every later page is sliced from the entry — and
// reading it all again costs none.
func TestPaginatedReadEvaluatesOnce(t *testing.T) {
	env := sharedEnv(t)
	cached := sparql.NewEngine(env.Store)
	cached.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
	ts := httptest.NewServer(server.New(cached).Handler())
	defer ts.Close()

	var query string
	rows := 0
	for _, task := range Synthetic() {
		q, err := task.Frame(env).ToSPARQL()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		resp, err := env.Engine.Do(context.Background(), sparql.Request{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if resp.Rows > rows {
			query, rows = q, resp.Rows
		}
	}
	c := client.NewHTTPClient(ts.URL+"/sparql", rows/8+1)
	read := func() (misses, pages uint64) {
		t.Helper()
		before := cached.CacheStats().Results
		res, err := c.Select(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows {
			t.Fatalf("paginated read returned %d rows, want %d", len(res.Rows), rows)
		}
		after := cached.CacheStats().Results
		return after.Misses - before.Misses, (after.Misses + after.Hits) - (before.Misses + before.Hits)
	}
	if misses, pages := read(); misses != 1 || pages < 2 {
		t.Errorf("cold read: %d result-cache misses over %d pages, want 1 over at least 2", misses, pages)
	}
	if misses, _ := read(); misses != 0 {
		t.Errorf("warm read: %d result-cache misses, want 0", misses)
	}
}
