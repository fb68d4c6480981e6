package baselines

import (
	"fmt"
	"testing"

	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// fixture bundles a store, its raw triples, and a prefix map.
type fixture struct {
	st       *store.Store
	triples  map[string][]rdf.Triple
	prefixes *rdf.PrefixMap
}

// cond is a filter condition on col with the expression src.
func cond(col, src string) core.Condition {
	e, err := sparql.ParseExpression(src, nil)
	if err != nil {
		panic(err)
	}
	return core.Condition{Col: col, Expr: e}
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cfg := datagen.DBpediaConfig{Seed: 1, Actors: 60, Movies: 250, Players: 30, Teams: 8, Athletes: 30, Books: 40, Authors: 15}
	triples := datagen.DBpedia(cfg)
	st := store.New()
	if err := st.AddAll(datagen.DBpediaURI, triples); err != nil {
		t.Fatal(err)
	}
	p := rdf.CommonPrefixes()
	p.Merge(rdf.NewPrefixMap(datagen.DBpediaPrefixes()))
	return &fixture{
		st:       st,
		triples:  map[string][]rdf.Triple{datagen.DBpediaURI: triples},
		prefixes: p,
	}
}

func (f *fixture) node(v string) sparql.Node {
	if len(v) > 0 && (v[0] == '<' || containsColon(v)) {
		return sparql.TermNode(rdf.NewIRI(f.prefixes.MustExpand(v)))
	}
	return sparql.Variable(v)
}

func containsColon(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return true
		}
	}
	return false
}

func (f *fixture) seed(s, p, o string) core.SeedOp {
	return core.SeedOp{GraphURI: datagen.DBpediaURI, S: f.node(s), P: f.node(p), O: f.node(o)}
}

func (f *fixture) expand(src, pred, dst string, optional bool) core.ExpandOp {
	return core.ExpandOp{
		GraphURI: datagen.DBpediaURI, Src: src,
		Pred: rdf.NewIRI(f.prefixes.MustExpand(pred)), New: dst, Optional: optional,
	}
}

func (f *fixture) chain(ops ...core.Op) *core.Chain {
	return &core.Chain{Ops: ops}
}

// pipelines returns representative operator chains exercising navigation,
// optional expansion, filters, grouping/having, and joins.
func pipelines(f *fixture) map[string]*core.Chain {
	moviesOps := []core.Op{
		f.seed("movie", "dbpp:starring", "actor"),
		f.expand("actor", "dbpp:birthPlace", "country", false),
		f.expand("movie", "dbpo:genre", "genre", true),
	}
	grouped := f.chain(
		f.seed("movie", "dbpp:starring", "actor"),
		core.GroupByOp{Cols: []string{"actor"}},
		core.AggregationOp{Agg: core.AggSpec{Fn: "count", Src: "movie", New: "n", Distinct: true}},
		core.FilterOp{Conds: []core.Condition{cond("n", "?n >= 4")}},
	)
	return map[string]*core.Chain{
		"navigation_only": f.chain(moviesOps...),
		"filter": f.chain(
			f.seed("movie", "dbpp:starring", "actor"),
			f.expand("actor", "dbpp:birthPlace", "country", false),
			core.FilterOp{Conds: []core.Condition{cond("country", "?country = <http://dbpedia.org/resource/United_States>")}},
		),
		"group_having": grouped,
		"join_grouped_with_patterns": f.chain(
			f.seed("actor", "dbpp:academyAward", "award"),
			core.JoinOp{Other: grouped, Col: "actor", OtherCol: "actor", Type: core.InnerJoin, NewCol: "actor"},
		),
		"left_outer_join": f.chain(
			f.seed("movie", "dbpp:starring", "actor"),
			core.JoinOp{
				Other: f.chain(f.seed("actor2", "dbpp:academyAward", "award")),
				Col:   "actor", OtherCol: "actor2", Type: core.LeftOuterJoin, NewCol: "actor",
			},
		),
		"sort_head": f.chain(
			f.seed("movie", "dbpp:starring", "actor"),
			core.GroupByOp{Cols: []string{"actor"}},
			core.AggregationOp{Agg: core.AggSpec{Fn: "count", Src: "movie", New: "n", Distinct: true}},
			core.SortOp{Keys: []core.SortKey{{Col: "n", Desc: true}, {Col: "actor"}}},
			core.HeadOp{K: 10},
		),
	}
}

// TestStrategiesAgree is the executable form of the paper's verification
// that all alternatives return identical results (and of Theorem 1: the
// generated SPARQL agrees with the reference operator semantics).
func TestStrategiesAgree(t *testing.T) {
	f := newFixture(t)
	cl := client.NewDirect(sparql.NewEngine(f.st))
	for name, chain := range pipelines(f) {
		t.Run(name, func(t *testing.T) {
			query, err := core.BuildSPARQL(chain)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Select(query)
			if err != nil {
				t.Fatalf("optimized query failed: %v\n%s", err, query)
			}
			optimized := dataframe.FromRows(res.Vars, res.Rows)

			strategies := map[string]NavSource{
				"navigation_pandas": &EngineNav{Client: cl, Batch: true},
				"sparql_pandas":     &EngineNav{Client: cl, Batch: false},
				"rdflib_pandas":     NewScanNav(f.triples),
			}
			for sname, src := range strategies {
				got, err := Run(chain, src)
				if err != nil {
					t.Fatalf("%s failed: %v", sname, err)
				}
				aligned, err := got.Select(optimized.Columns()...)
				if err != nil {
					t.Fatalf("%s missing columns: have %v want %v", sname, got.Columns(), optimized.Columns())
				}
				if _, isHead := chain.Ops[len(chain.Ops)-1].(core.HeadOp); isHead {
					// Row membership under LIMIT depends on tie order; only
					// check the count.
					if aligned.Len() != optimized.Len() {
						t.Fatalf("%s: %d rows, optimized %d", sname, aligned.Len(), optimized.Len())
					}
					return
				}
				if !dataframe.MultisetEqual(optimized, aligned) {
					t.Fatalf("%s differs from optimized SPARQL:\noptimized %d rows\n%s\n%s %d rows\n%s\nquery:\n%s",
						sname, optimized.Len(), optimized, sname, aligned.Len(), aligned, query)
				}
			}
		})
	}
}

func TestScanNavAnswersConstantPatterns(t *testing.T) {
	f := newFixture(t)
	src := NewScanNav(f.triples)
	df, err := src.ResolveNav([]core.Op{f.seed("movie", "dbpp:starring", "actor")})
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() == 0 {
		t.Fatal("no rows from scan")
	}
	distinct := map[rdf.Triple]bool{}
	for _, tr := range f.triples[datagen.DBpediaURI] {
		if tr.P.Value == "http://dbpedia.org/property/starring" {
			distinct[tr] = true
		}
	}
	if df.Len() != len(distinct) {
		t.Fatalf("scan rows = %d, want %d distinct triples", df.Len(), len(distinct))
	}
}

func TestRunRejectsInvalidChain(t *testing.T) {
	f := newFixture(t)
	_, err := Run(f.chain(), NewScanNav(f.triples))
	if err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestRunReportsUnresolvedPendingFilter(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(
		f.seed("movie", "dbpp:starring", "actor"),
		core.GroupByOp{Cols: []string{"actor"}},
		core.AggregationOp{Agg: core.AggSpec{Fn: "count", Src: "movie", New: "n"}},
		core.FilterOp{Conds: []core.Condition{cond("movie", "isIRI(?movie)")}},
	)
	if _, err := Run(chain, NewScanNav(f.triples)); err == nil {
		t.Fatal("pending filter never resolved but Run succeeded")
	}
}

func TestEngineNavBatchVsSingleSameResult(t *testing.T) {
	f := newFixture(t)
	cl := client.NewDirect(sparql.NewEngine(f.st))
	chain := f.chain(
		f.seed("movie", "dbpp:starring", "actor"),
		f.expand("actor", "dbpp:birthPlace", "country", false),
		f.expand("movie", "dbpp:language", "lang", false),
	)
	batch, err := Run(chain, &EngineNav{Client: cl, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(chain, &EngineNav{Client: cl, Batch: false})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := single.Select(batch.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.MultisetEqual(batch, aligned) {
		t.Fatalf("batch (%d rows) and single (%d rows) differ", batch.Len(), single.Len())
	}
}

func TestJoinOnSharedMultipleColumns(t *testing.T) {
	left := dataframe.FromRows([]string{"a", "b", "x"}, [][]rdf.Term{
		{rdf.NewIRI("http://1"), rdf.NewIRI("http://b1"), rdf.NewLiteral("l1")},
		{rdf.NewIRI("http://2"), rdf.NewIRI("http://b2"), rdf.NewLiteral("l2")},
	})
	right := dataframe.FromRows([]string{"a", "b", "y"}, [][]rdf.Term{
		{rdf.NewIRI("http://1"), rdf.NewIRI("http://b1"), rdf.NewLiteral("r1")},
		{rdf.NewIRI("http://2"), rdf.NewIRI("http://OTHER"), rdf.NewLiteral("r2")},
	})
	out, err := (&interp{}).joinOnShared(left, right, dataframe.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Row 2 disagrees on the second shared column b, so only row 1 joins.
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", out.Len(), out)
	}
	for _, c := range out.Columns() {
		if c == "b_2" {
			t.Fatal("duplicate shared column not dropped")
		}
	}
}

func ExampleRun() {
	triples := datagen.DBpedia(datagen.DBpediaConfig{Seed: 1, Actors: 5, Movies: 10})
	chain := &core.Chain{Ops: []core.Op{
		core.SeedOp{
			GraphURI: datagen.DBpediaURI,
			S:        sparql.Variable("movie"),
			P:        sparql.TermNode(rdf.NewIRI("http://dbpedia.org/property/starring")),
			O:        sparql.Variable("actor"),
		},
	}}
	df, _ := Run(chain, NewScanNav(map[string][]rdf.Triple{datagen.DBpediaURI: triples}))
	fmt.Println(len(df.Columns()))
	// Output: 2
}
