package bench

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"rdfframes"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// TestFramePathsAgree: every way a client builds a task's frame yields the
// same table — the in-process client adopting the engine's compact result,
// the HTTP client paginating at 1, 7 and 100,000 rows a page, and the
// decoded Results view converted by ResultsToDataFrame: the same columns,
// and the same term in every cell of every row in the same order, unbound
// cells of OPTIONALs and full outer joins included. One-row pages cost a
// round trip a row, so they are read only for results of up to
// onePageRowsMax rows (15 of the 18 tasks; cs1, cs3 and Q13 are longer).
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
	}
	unbound := 0
	for _, task := range append(CaseStudies(), Synthetic()...) {
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
