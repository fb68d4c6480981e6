// Ablation benchmarks for the design choices DESIGN.md calls out: the
// engine's cost-based join ordering, its filter pushdown, and the client's
// pagination page size. These isolate why the optimized queries win in
// Figures 3–5.
package rdfframes_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"rdfframes"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
)

// ablationQuery is a join-heavy query whose cost is dominated by pattern
// order: starting from the selective birthPlace filter is far cheaper than
// starting from the starring fan-out.
const ablationQuery = `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor .
  ?movie dbpp:language ?language .
  ?movie dbpp:studio ?studio .
  ?actor dbpp:birthPlace dbpr:Japan .
  FILTER ( ?studio != dbpr:Warner )
}`

// ablationQueryFilterAtEnd is ablationQuery with its patterns in a nested
// group: the FILTER, outside it, cannot be pushed into the BGP pipeline and
// runs at the end of the outer group.
const ablationQueryFilterAtEnd = `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
SELECT * FROM <http://dbpedia.org> WHERE {
  {
    ?movie dbpp:starring ?actor .
    ?movie dbpp:language ?language .
    ?movie dbpp:studio ?studio .
    ?actor dbpp:birthPlace dbpr:Japan .
  }
  FILTER ( ?studio != dbpr:Warner )
}`

func BenchmarkAblationJoinOrdering(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"planner", false}, {"textual_order", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := sparql.NewEngine(env.Store)
			eng.DisableReorder = mode.disable
			for i := 0; i < b.N; i++ {
				if _, err := eng.Do(context.Background(), sparql.Request{Query: ablationQuery}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationFilterPushdown(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, mode := range []struct {
		name  string
		query string
	}{{"pushdown", ablationQuery}, {"filter_at_end", ablationQueryFilterAtEnd}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := sparql.NewEngine(env.Store)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Do(context.Background(), sparql.Request{Query: mode.query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPageSize sweeps the client's pagination chunk size
// against a row-capped endpoint, quantifying the chunking overhead the
// paper's Executor design accepts for endpoint generality.
func BenchmarkAblationPageSize(b *testing.B) {
	env := sharedBenchEnv(b)
	srv := server.New(sparql.NewEngine(env.Store))
	srv.MaxRows = 100000
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	frame := env.DBpedia.FeatureDomainRange("dbpp:starring", "movie", "actor")
	for _, pageSize := range []int{500, 2000, 10000} {
		b.Run(fmt.Sprintf("page%d", pageSize), func(b *testing.B) {
			c := rdfframes.ConnectHTTP(ts.URL+"/sparql", pageSize)
			for i := 0; i < b.N; i++ {
				if _, err := frame.Execute(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
