package rdfframes

import (
	"fmt"
	"strings"
	"testing"

	"rdfframes/internal/client"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

const dbpediaURI = "http://dbpedia.org"

// intLit is how a generated query writes an integer operand.
func intLit(n int) string { return fmt.Sprintf(`"%d"^^<%s>`, n, rdf.XSDInteger) }

var dbpediaPrefixes = map[string]string{
	"dbpp":    "http://dbpedia.org/property/",
	"dbpr":    "http://dbpedia.org/resource/",
	"dbpo":    "http://dbpedia.org/ontology/",
	"dcterms": "http://purl.org/dc/terms/",
}

// miniDBpedia builds a small movie graph with known statistics:
//   - actors a0..a5; a0,a1,a2 born in the US, a3,a4,a5 elsewhere
//   - a0 stars in 6 movies, a1 in 3, a2 in 1, a3 in 5, a4 in 2, a5 in 1
//   - every movie m<i> has a title; even-numbered movies have a genre
//   - a0 and a3 have academy awards
func miniDBpedia(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	p := rdf.CommonPrefixes()
	p.Merge(rdf.NewPrefixMap(dbpediaPrefixes))
	add := func(s, pred string, o rdf.Term) {
		tr := rdf.Triple{S: rdf.NewIRI(p.MustExpand(s)), P: rdf.NewIRI(p.MustExpand(pred)), O: o}
		if err := st.Add(dbpediaURI, tr); err != nil {
			t.Fatal(err)
		}
	}
	res := func(s string) rdf.Term { return rdf.NewIRI(p.MustExpand(s)) }

	counts := []int{6, 3, 1, 5, 2, 1}
	movieID := 0
	for actor, n := range counts {
		a := fmt.Sprintf("dbpr:a%d", actor)
		if actor <= 2 {
			add(a, "dbpp:birthPlace", res("dbpr:United_States"))
		} else {
			add(a, "dbpp:birthPlace", res("dbpr:France"))
		}
		add(a, "rdfs:label", rdf.NewLiteral(fmt.Sprintf("Actor %d", actor)))
		for i := 0; i < n; i++ {
			m := fmt.Sprintf("dbpr:m%d", movieID)
			add(m, "dbpp:starring", res(a))
			add(m, "rdfs:label", rdf.NewLiteral(fmt.Sprintf("Movie %d", movieID)))
			add(m, "dcterms:subject", res(fmt.Sprintf("dbpr:subject%d", movieID%3)))
			add(m, "dbpp:country", res("dbpr:United_States"))
			if movieID%2 == 0 {
				add(m, "dbpo:genre", res(fmt.Sprintf("dbpr:genre%d", movieID%2)))
			}
			movieID++
		}
	}
	add("dbpr:a0", "dbpp:academyAward", res("dbpr:Oscar_Best_Actor"))
	add("dbpr:a3", "dbpp:academyAward", res("dbpr:Oscar_Best_Actor"))
	return st
}

func dbpediaGraph() *KnowledgeGraph {
	return NewKnowledgeGraph(dbpediaURI, dbpediaPrefixes)
}

// listing1 builds the paper's motivating example (Listing 1): prolific
// American actors (>= threshold movies), their movies and optional awards.
func listing1(g *KnowledgeGraph, threshold int) *RDFFrame {
	movies := g.FeatureDomainRange("dbpp:starring", "movie", "actor")
	american := movies.
		Expand("actor", Out("dbpp:birthPlace", "country")).
		Filter(Conds{"country": {"=dbpr:United_States"}})
	prolific := american.GroupBy("actor").CountDistinct("movie", "movie_count").
		Filter(Conds{"movie_count": {fmt.Sprintf(">=%d", threshold)}})
	return prolific.Expand("actor",
		In("dbpp:starring", "movie"),
		Out("dbpp:academyAward", "award").Opt())
}

func TestListing1GeneratesNestedQuery(t *testing.T) {
	q, err := listing1(dbpediaGraph(), 50).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"GROUP BY ?actor",
		"HAVING ( COUNT(DISTINCT ?movie) >= " + intLit(50) + " )",
		"OPTIONAL {",
		"?movie <http://dbpedia.org/property/starring> ?actor",
		"FILTER ( ?country = <http://dbpedia.org/resource/United_States> )",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("generated query missing %q:\n%s", want, q)
		}
	}
	// Exactly one level of nesting: the grouped subquery.
	if got := strings.Count(q, "SELECT"); got != 2 {
		t.Errorf("expected exactly 2 SELECTs (one subquery), got %d:\n%s", got, q)
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
}

func TestListing1ExecutesCorrectly(t *testing.T) {
	st := miniDBpedia(t)
	df, err := listing1(dbpediaGraph(), 3).Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	// Prolific American actors with >= 3 movies: a0 (6 movies), a1 (3).
	actors := map[string]bool{}
	awards := 0
	for i := 0; i < df.Len(); i++ {
		actors[df.Cell(i, "actor").Value] = true
		if df.Cell(i, "award").IsBound() {
			awards++
		}
	}
	if len(actors) != 2 {
		t.Fatalf("prolific actors = %v, want a0 and a1", actors)
	}
	if !actors["http://dbpedia.org/resource/a0"] || !actors["http://dbpedia.org/resource/a1"] {
		t.Fatalf("wrong actors: %v", actors)
	}
	// 6 movies for a0 (each with award) + 3 for a1 (no award) = 9 rows.
	if df.Len() != 9 {
		t.Fatalf("rows = %d, want 9", df.Len())
	}
	if awards != 6 {
		t.Fatalf("award rows = %d, want 6 (only a0 has an award)", awards)
	}
}

// listing3 builds the movie genre classification case study (Listing 3):
// (american actors OUTER JOIN prolific actors) INNER JOIN movie features.
func listing3(g *KnowledgeGraph, threshold int) *RDFFrame {
	movies := g.FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("actor",
			Out("dbpp:birthPlace", "actor_country"),
			Out("rdfs:label", "actor_name")).
		Expand("movie",
			Out("rdfs:label", "movie_name"),
			Out("dcterms:subject", "subject"),
			Out("dbpp:country", "movie_country"),
			Out("dbpo:genre", "genre").Opt()).
		Cache()
	american := movies.FilterRaw("actor_country", `regex(str(?actor_country), "United_States")`)
	prolific := movies.GroupBy("actor").CountDistinct("movie", "movie_count").
		Filter(Conds{"movie_count": {fmt.Sprintf(">=%d", threshold)}})
	return american.Join(prolific, "actor", FullOuterJoin).
		Join(movies, "actor", InnerJoin)
}

func TestListing3GeneratesUnionOfOptionals(t *testing.T) {
	q, err := listing3(dbpediaGraph(), 20).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UNION", "OPTIONAL", "GROUP BY ?actor", "HAVING ( COUNT(DISTINCT ?movie) >= " + intLit(20) + " )"} {
		if !strings.Contains(q, want) {
			t.Errorf("missing %q in:\n%s", want, q)
		}
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
}

func TestListing3ExecutesCorrectly(t *testing.T) {
	st := miniDBpedia(t)
	df, err := listing3(dbpediaGraph(), 5).Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() == 0 {
		t.Fatal("empty result")
	}
	// Every American actor's movies appear (a0,a1,a2 = 10 rows) plus
	// prolific non-American actors (a3, 5 movies).
	actors := map[string]int{}
	for i := 0; i < df.Len(); i++ {
		actors[df.Cell(i, "actor").Value]++
	}
	for _, want := range []string{"a0", "a1", "a2", "a3"} {
		if actors["http://dbpedia.org/resource/"+want] == 0 {
			t.Errorf("actor %s missing from result (have %v)", want, actors)
		}
	}
	for _, absent := range []string{"a4", "a5"} {
		if actors["http://dbpedia.org/resource/"+absent] != 0 {
			t.Errorf("actor %s should not be in result", absent)
		}
	}
}

const dblpURI = "http://dblp.l3s.de"

var dblpPrefixes = map[string]string{
	"swrc":   "http://swrc.ontoware.org/ontology#",
	"dc":     "http://purl.org/dc/elements/1.1/",
	"dcterm": "http://purl.org/dc/terms/",
	"dblprc": "http://dblp.l3s.de/d2r/resource/conferences/",
}

// miniDBLP builds a bibliography graph: authors au0..au4, papers with
// venues (vldb, sigmod, icml) and years. au0 has 4 vldb/sigmod papers
// since 2005, au1 has 2, others fewer or in other venues.
func miniDBLP(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	p := rdf.CommonPrefixes()
	p.Merge(rdf.NewPrefixMap(dblpPrefixes))
	add := func(s, pred string, o rdf.Term) {
		tr := rdf.Triple{S: rdf.NewIRI(p.MustExpand(s)), P: rdf.NewIRI(p.MustExpand(pred)), O: o}
		if err := st.Add(dblpURI, tr); err != nil {
			t.Fatal(err)
		}
	}
	res := func(s string) rdf.Term { return rdf.NewIRI(p.MustExpand(s)) }
	type paper struct {
		author string
		conf   string
		year   int
	}
	papers := []paper{
		{"au0", "vldb", 2010}, {"au0", "sigmod", 2012}, {"au0", "vldb", 2015}, {"au0", "sigmod", 2018},
		{"au1", "vldb", 2011}, {"au1", "vldb", 2016},
		{"au2", "icml", 2014}, {"au2", "icml", 2017},
		{"au3", "vldb", 1999},
		{"au4", "sigmod", 2008},
	}
	for i, pp := range papers {
		id := fmt.Sprintf("<http://dblp.l3s.de/rec/%d>", i)
		add(id, "rdf:type", res("swrc:InProceedings"))
		add(id, "dc:creator", res("<http://dblp.l3s.de/author/"+pp.author+">"))
		add(id, "dcterm:issued", rdf.NewTypedLiteral(fmt.Sprintf("%d-01-01", pp.year), rdf.XSDDate))
		add(id, "swrc:series", res("dblprc:"+pp.conf))
		add(id, "dc:title", rdf.NewLiteral(fmt.Sprintf("Paper %d by %s", i, pp.author)))
	}
	return st
}

func dblpGraph() *KnowledgeGraph {
	g := NewKnowledgeGraph(dblpURI, dblpPrefixes)
	return g
}

// listing5 builds the topic modeling case study: titles of recent papers by
// authors with >= threshold SIGMOD/VLDB papers since 2005.
func listing5(g *KnowledgeGraph, threshold int) *RDFFrame {
	papers := g.Entities("swrc:InProceedings", "paper").
		Expand("paper",
			Out("dc:creator", "author"),
			Out("dcterm:issued", "date"),
			Out("swrc:series", "conference"),
			Out("dc:title", "title")).
		Cache()
	authors := papers.
		FilterRaw("date", "year(xsd:dateTime(?date)) >= 2005").
		Filter(Conds{"conference": {"In(dblprc:vldb, dblprc:sigmod)"}}).
		GroupBy("author").Count("paper", "n_papers").
		Filter(Conds{"n_papers": {fmt.Sprintf(">=%d", threshold)}}).
		FilterRaw("date", "year(xsd:dateTime(?date)) >= 2005")
	return papers.Join(authors, "author", InnerJoin).SelectCols("title")
}

func TestListing5GeneratesHavingQuery(t *testing.T) {
	q, err := listing5(dblpGraph(), 20).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SELECT ?title",
		"GROUP BY ?author",
		"HAVING ( COUNT(?paper) >= " + intLit(20) + " )",
		"IN (<http://dblp.l3s.de/d2r/resource/conferences/vldb>, <http://dblp.l3s.de/d2r/resource/conferences/sigmod>)",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("missing %q in:\n%s", want, q)
		}
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
}

func TestListing5ExecutesCorrectly(t *testing.T) {
	st := miniDBLP(t)
	df, err := listing5(dblpGraph(), 3).Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	// Only au0 has >= 3 vldb/sigmod papers since 2005: 4 titles.
	if df.Len() != 4 {
		t.Fatalf("titles = %d, want 4\n%s", df.Len(), df)
	}
	for i := 0; i < df.Len(); i++ {
		if !strings.Contains(df.Cell(i, "title").Value, "au0") {
			t.Fatalf("unexpected title %s", df.Cell(i, "title"))
		}
	}
}

// listing7 is the KG embedding data prep: all entity-to-entity triples.
func listing7(g *KnowledgeGraph) *RDFFrame {
	return g.FeatureDomainRange("pred", "sub", "obj").Filter(Conds{"obj": {"isURI"}})
}

func TestListing7GeneratesIsIRIFilter(t *testing.T) {
	q, err := listing7(dblpGraph()).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, "FILTER ( isiri(?obj) )") {
		t.Fatalf("missing isIRI filter:\n%s", q)
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
}

func TestListing7ExecutesCorrectly(t *testing.T) {
	st := miniDBLP(t)
	df, err := listing7(dblpGraph()).Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < df.Len(); i++ {
		if !df.Cell(i, "obj").IsIRI() {
			t.Fatalf("non-IRI object in row %d: %v", i, df.Cell(i, "obj"))
		}
	}
	// 10 papers x 3 IRI-valued predicates (type, creator, series).
	if df.Len() != 30 {
		t.Fatalf("rows = %d, want 30", df.Len())
	}
}

// TestNaiveEquivalence checks that the naive per-operator translation
// returns the same bag of rows as the optimized translation (the paper
// verifies all alternatives produce identical results).
func TestNaiveEquivalence(t *testing.T) {
	dbp := miniDBpedia(t)
	dblp := miniDBLP(t)
	cases := []struct {
		name  string
		frame *RDFFrame
		store *store.Store
	}{
		{"listing1", listing1(dbpediaGraph(), 3), dbp},
		{"listing5", listing5(dblpGraph(), 3), dblp},
		{"listing7", listing7(dblpGraph()), dblp},
		{"expand_filter", dbpediaGraph().
			FeatureDomainRange("dbpp:starring", "movie", "actor").
			Expand("actor", Out("dbpp:birthPlace", "country")).
			Filter(Conds{"country": {"=dbpr:United_States"}}), dbp},
		{"group_only", dbpediaGraph().
			FeatureDomainRange("dbpp:starring", "movie", "actor").
			GroupBy("actor").Count("movie", "n"), dbp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ConnectStore(tc.store)
			opt, err := tc.frame.ToSPARQL()
			if err != nil {
				t.Fatal(err)
			}
			naive, err := tc.frame.ToNaiveSPARQL()
			if err != nil {
				t.Fatal(err)
			}
			optRes, err := c.Select(opt)
			if err != nil {
				t.Fatalf("optimized query failed: %v\n%s", err, opt)
			}
			naiveRes, err := c.Select(naive)
			if err != nil {
				t.Fatalf("naive query failed: %v\n%s", err, naive)
			}
			optDF := ResultsToDataFrame(optRes)
			naiveDF := ResultsToDataFrame(naiveRes)
			// Compare on the optimized query's columns (naive may expose
			// extra intermediate columns when projecting *).
			cols := optDF.Columns()
			nd, err := naiveDF.Select(cols...)
			if err != nil {
				t.Fatalf("naive result missing columns %v: has %v", cols, naiveDF.Columns())
			}
			if !dataframe.MultisetEqual(optDF, nd) {
				t.Fatalf("results differ:\noptimized (%d rows)\n%s\nnaive (%d rows)\n%s\nopt query:\n%s\nnaive query:\n%s",
					optDF.Len(), optDF, nd.Len(), nd, opt, naive)
			}
		})
	}
}

func TestExplorationOperators(t *testing.T) {
	st := miniDBLP(t)
	g := dblpGraph()
	df, err := g.Classes("class", "n").Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 1 || df.Cell(0, "class").Value != "http://swrc.ontoware.org/ontology#InProceedings" {
		t.Fatalf("classes = %s", df)
	}
	if n, _ := df.Cell(0, "n").AsInt(); n != 10 {
		t.Fatalf("class count = %d, want 10", n)
	}
	pd, err := g.PredicateDistribution("pred", "n").Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if pd.Len() != 5 {
		t.Fatalf("predicates = %d, want 5", pd.Len())
	}
	// Sorted descending by count; all have count 10.
	if n, _ := pd.Cell(0, "n").AsInt(); n != 10 {
		t.Fatalf("top predicate count = %d", n)
	}
}

func TestSortAndHead(t *testing.T) {
	st := miniDBpedia(t)
	df, err := dbpediaGraph().
		FeatureDomainRange("dbpp:starring", "movie", "actor").
		GroupBy("actor").CountDistinct("movie", "n").
		Sort(Desc("n")).
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := df.Cell(0, "n").AsInt(); n != 6 {
		t.Fatalf("top actor count = %d, want 6", n)
	}
	df2, err := dbpediaGraph().
		FeatureDomainRange("dbpp:starring", "movie", "actor").
		GroupBy("actor").CountDistinct("movie", "n").
		Sort(Desc("n")).Head(2).
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df2.Len() != 2 {
		t.Fatalf("head = %d rows", df2.Len())
	}
}

func TestExpandAfterSortWraps(t *testing.T) {
	// A pattern-adding operator after modifiers must nest (paper §4.1).
	st := miniDBpedia(t)
	f := dbpediaGraph().
		FeatureDomainRange("dbpp:starring", "movie", "actor").
		Sort(Asc("actor")).Cache()
	df, err := f.Expand("actor", Out("dbpp:birthPlace", "country")).Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 18 { // every starring row has a birthplace
		t.Fatalf("rows = %d, want 18", df.Len())
	}
	q, _ := f.Expand("actor", Out("dbpp:birthPlace", "country")).ToSPARQL()
	if strings.Count(q, "SELECT") != 2 {
		t.Fatalf("expected nested query after modifiers:\n%s", q)
	}
}

func TestAggregateWholeFrame(t *testing.T) {
	st := miniDBpedia(t)
	df, err := dbpediaGraph().
		FeatureDomainRange("dbpp:starring", "movie", "actor").
		Aggregate(CountDistinct, "actor", "n_actors").
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := df.Cell(0, "n_actors").AsInt(); n != 6 {
		t.Fatalf("n_actors = %d, want 6", n)
	}
}

func TestAPIErrorsPropagate(t *testing.T) {
	g := dbpediaGraph()
	cases := []*RDFFrame{
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").Expand("ghost", Out("dbpp:birthPlace", "c")),
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").Expand("actor", Out("unknownprefix:x", "c")),
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").Filter(Conds{"nope": {">=5"}}),
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").Filter(Conds{"actor": {"~garbage~"}}),
		g.Seed("a b", "dbpp:x", "c"),
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").SelectCols("ghost"),
		g.FeatureDomainRange("dbpp:starring", "movie", "actor").Expand("actor", Out("dbpp:birthPlace", "movie")),
	}
	for i, f := range cases {
		if _, err := f.ToSPARQL(); err == nil {
			t.Errorf("case %d: invalid frame compiled without error", i)
		}
	}
}

func TestJoinAcrossGraphsUsesGraphBlocks(t *testing.T) {
	dbp := dbpediaGraph()
	yago := NewKnowledgeGraph("http://yago-knowledge.org", map[string]string{
		"yago": "http://yago-knowledge.org/resource/",
	})
	left := dbp.FeatureDomainRange("dbpp:starring", "movie", "actor")
	right := yago.Seed("actor", "yago:actedIn", "yago_movie")
	q, err := left.Join(right, "actor", InnerJoin).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FROM <http://dbpedia.org>",
		"FROM <http://yago-knowledge.org>",
		"GRAPH <http://dbpedia.org>",
		"GRAPH <http://yago-knowledge.org>",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("missing %q in cross-graph query:\n%s", want, q)
		}
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("cross-graph query does not parse: %v\n%s", err, q)
	}
}

func TestJoinOnDifferentColumnNames(t *testing.T) {
	st := miniDBpedia(t)
	g := dbpediaGraph()
	left := g.FeatureDomainRange("dbpp:starring", "movie", "actor")
	right := g.Seed("star", "dbpp:academyAward", "award")
	df, err := left.JoinOn(right, "actor", "star", InnerJoin, "person").Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if !df.HasColumn("person") {
		t.Fatalf("joined column missing: %v", df.Columns())
	}
	// a0 (6 movies) and a3 (5 movies) have awards: 11 rows.
	if df.Len() != 11 {
		t.Fatalf("rows = %d, want 11", df.Len())
	}
}

func TestCondsRendering(t *testing.T) {
	g := dbpediaGraph()
	f := g.FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("actor", Out("dbpp:birthPlace", "country"), Out("dbpo:year", "year")).
		Filter(Conds{
			"country": {"=dbpr:United_States", "!=dbpr:Canada"},
			"year":    {">=1990", "<2020"},
		})
	q, err := f.ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"?country = <http://dbpedia.org/resource/United_States>",
		"?country != <http://dbpedia.org/resource/Canada>",
		"?year >= " + intLit(1990),
		"?year < " + intLit(2020),
	} {
		if !strings.Contains(q, want) {
			t.Errorf("missing %q in:\n%s", want, q)
		}
	}
}

func TestLazyEvaluationRecordsWithoutExecuting(t *testing.T) {
	// Building frames must not touch any client: no store exists here.
	g := dbpediaGraph()
	f := listing1(g, 50)
	if f.Err() != nil {
		t.Fatalf("recording failed: %v", f.Err())
	}
	// Only Execute/ToSPARQL compiles.
	if _, err := f.ToSPARQL(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteOverHTTPWithPagination(t *testing.T) {
	st := miniDBpedia(t)
	endpoint := newHTTPEndpoint(t, st, 4) // server truncates at 4 rows
	c := ConnectHTTP(endpoint, 4)
	df, err := dbpediaGraph().FeatureDomainRange("dbpp:starring", "movie", "actor").Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 18 {
		t.Fatalf("rows = %d, want 18 (pagination must fetch all)", df.Len())
	}
}

// TestCacheIsSatisfiedByTheEngine: Cache changes nothing in the generated
// query, and the reuse it stands for happens anyway — a frame joined with
// itself or with a branch of itself repeats its operators in the query, and
// the engine evaluates the repeated subplan once.
func TestCacheIsSatisfiedByTheEngine(t *testing.T) {
	movies := dbpediaGraph().FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("actor", Out("dbpp:birthPlace", "country"))
	cached := movies.Cache()
	plain, err := movies.ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	if q, err := cached.ToSPARQL(); err != nil || q != plain {
		t.Fatalf("Cache changed the query (%v):\n%s\nvs\n%s", err, q, plain)
	}
	eng := sparql.NewEngine(miniDBpedia(t))
	for name, frame := range map[string]*RDFFrame{
		"itself":   cached.Join(cached, "actor", FullOuterJoin),
		"a branch": cached.Join(cached.GroupBy("actor").Count("movie", "movie_count"), "actor", FullOuterJoin),
	} {
		q, err := frame.ToSPARQL()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, q)
		}
		if rep.SubplanReuses < 1 {
			t.Errorf("full outer join with %s reused no subplan:\n%s", name, q)
		}
	}
}

// TestFrameRepeatPlansOnce: executing one frame twice through ConnectStore
// parses and plans its query once; the second call is a plan-cache hit.
func TestFrameRepeatPlansOnce(t *testing.T) {
	c := ConnectStore(miniDBpedia(t))
	frame := listing1(dbpediaGraph(), 3)
	for i := 0; i < 2; i++ {
		if _, err := frame.Execute(c); err != nil {
			t.Fatal(err)
		}
	}
	p := c.(*client.Direct).Engine.CacheStats().Plans
	if p.Misses != 1 || p.Hits != 1 {
		t.Fatalf("plan cache after two Executes: %+v, want 1 miss and 1 hit", p)
	}
}
