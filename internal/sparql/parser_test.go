package sparql

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseMinimalSelect(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o . }`)
	if !q.Star || len(q.Where.Elems) != 1 {
		t.Fatalf("bad query: %+v", q)
	}
	bgp, ok := q.Where.Elems[0].(BGPElem)
	if !ok {
		t.Fatalf("want BGPElem, got %T", q.Where.Elems[0])
	}
	if !bgp.Pattern.S.IsVar || bgp.Pattern.S.Var != "s" {
		t.Fatalf("subject: %+v", bgp.Pattern.S)
	}
}

func TestParsePrefixesAndPNames(t *testing.T) {
	q := mustParse(t, `
PREFIX dbpp: <http://dbpedia.org/property/>
SELECT ?movie ?actor WHERE { ?movie dbpp:starring ?actor }`)
	bgp := q.Where.Elems[0].(BGPElem)
	if bgp.Pattern.P.Term != rdf.NewIRI("http://dbpedia.org/property/starring") {
		t.Fatalf("predicate = %v", bgp.Pattern.P.Term)
	}
	if len(q.Items) != 2 || q.Items[0].Var != "movie" {
		t.Fatalf("items = %+v", q.Items)
	}
}

func TestParseUnknownPrefixFails(t *testing.T) {
	if _, err := Parse(`SELECT * WHERE { ?s nope:p ?o }`); err == nil {
		t.Fatal("unknown prefix accepted")
	}
}

func TestParseSemicolonCommaShorthand(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
	  ?m <http://p/starring> ?a , ?b ;
	     <http://p/title> ?t .
	}`)
	if n := len(q.Where.Elems); n != 3 {
		t.Fatalf("got %d patterns, want 3", n)
	}
	last := q.Where.Elems[2].(BGPElem).Pattern
	if last.S.Var != "m" || last.O.Var != "t" {
		t.Fatalf("shorthand subject not carried: %v", last)
	}
}

func TestParseFromAndWhere(t *testing.T) {
	q := mustParse(t, `SELECT * FROM <http://dbpedia.org> FROM <http://yago> WHERE { ?s ?p ?o }`)
	if len(q.From) != 2 || q.From[0] != "http://dbpedia.org" {
		t.Fatalf("From = %v", q.From)
	}
}

func TestParseOptionalUnionGraph(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
	  ?s <http://p/x> ?o .
	  OPTIONAL { ?s <http://p/y> ?y }
	  { ?s <http://p/a> ?a } UNION { ?s <http://p/b> ?b } UNION { ?s <http://p/c> ?c }
	  GRAPH <http://g2> { ?s <http://p/z> ?z }
	}`)
	var haveOpt, haveGraph bool
	var unionBranches int
	for _, el := range q.Where.Elems {
		switch e := el.(type) {
		case OptionalElem:
			haveOpt = true
		case UnionElem:
			unionBranches = len(e.Branches)
		case GraphElem:
			haveGraph = e.Graph == "http://g2"
		}
	}
	if !haveOpt || unionBranches != 3 || !haveGraph {
		t.Fatalf("opt=%v union=%d graph=%v", haveOpt, unionBranches, haveGraph)
	}
}

func TestParseSubquery(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
	  ?m <http://p/starring> ?a
	  { SELECT DISTINCT ?a (COUNT(DISTINCT ?m) AS ?cnt)
	    WHERE { ?m <http://p/starring> ?a }
	    GROUP BY ?a
	    HAVING ( COUNT(DISTINCT ?m) >= 50 )
	  }
	}`)
	var sub *Query
	for _, el := range q.Where.Elems {
		if g, ok := el.(GroupElem); ok {
			if sq, ok := g.Group.Elems[0].(SubQueryElem); ok {
				sub = sq.Query
			}
		}
		if sq, ok := el.(SubQueryElem); ok {
			sub = sq.Query
		}
	}
	if sub == nil {
		t.Fatal("no subquery found")
	}
	if !sub.Distinct || len(sub.GroupBy) != 1 || len(sub.Having) != 1 {
		t.Fatalf("subquery = %+v", sub)
	}
	agg, ok := sub.Items[1].Expr.(ExAgg)
	if !ok || agg.Fn != "count" || !agg.Distinct {
		t.Fatalf("aggregate item = %+v", sub.Items[1])
	}
}

func TestParseModifiers(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s ?p ?o }
	  ORDER BY DESC(?s) ?p LIMIT 10 OFFSET 5`)
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("order = %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Fatalf("limit=%d offset=%d", q.Limit, q.Offset)
	}
}

func TestParseFilterExpressions(t *testing.T) {
	q := mustParse(t, `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
	SELECT * WHERE {
	  ?s <http://p/d> ?date ; <http://p/c> ?conf .
	  FILTER ( ( year(xsd:dateTime(?date)) >= 2005 ) && ( ?conf IN (<http://c/vldb>, <http://c/sigmod>) ) )
	  FILTER regex(str(?s), "USA")
	  FILTER ( !isLiteral(?s) || ?x + 2 * 3 < 10 )
	}`)
	nFilters := 0
	for _, el := range q.Where.Elems {
		if _, ok := el.(FilterElem); ok {
			nFilters++
		}
	}
	if nFilters != 3 {
		t.Fatalf("filters = %d, want 3", nFilters)
	}
}

func TestParseBind(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o BIND(?o AS ?renamed) }`)
	found := false
	for _, el := range q.Where.Elems {
		if b, ok := el.(BindElem); ok && b.Var == "renamed" {
			found = true
		}
	}
	if !found {
		t.Fatal("BIND not parsed")
	}
}

func TestParseAKeyword(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?x a <http://ex/Class> }`)
	bgp := q.Where.Elems[0].(BGPElem)
	if bgp.Pattern.P.Term != rdf.NewIRI(rdf.RDFType) {
		t.Fatalf("a != rdf:type: %v", bgp.Pattern.P)
	}
}

func TestParseLiteralForms(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
	  ?s <http://p/a> "plain" .
	  ?s <http://p/b> "tagged"@en .
	  ?s <http://p/c> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
	  ?s <http://p/d> 7 .
	  ?s <http://p/e> 2.5 .
	  ?s <http://p/f> true .
	}`)
	objs := []rdf.Term{}
	for _, el := range q.Where.Elems {
		objs = append(objs, el.(BGPElem).Pattern.O.Term)
	}
	want := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("tagged", "en"),
		rdf.NewInteger(42),
		rdf.NewInteger(7),
		rdf.NewTypedLiteral("2.5", rdf.XSDDecimal),
		rdf.NewBoolean(true),
	}
	for i := range want {
		if objs[i] != want[i] {
			t.Errorf("literal %d = %v, want %v", i, objs[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { ?s ?p }`,
		`SELECT * WHERE { ?s ?p ?o`,
		`SELECT * WHERE { ?s ?p ?o } GROUP BY`,
		`SELECT * WHERE { FILTER }`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT abc`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT 1.5`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT 99999999999999999999`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT 1 LIMIT 2`,
		`SELECT * WHERE { ?s ?p ?o } OFFSET 1 LIMIT 2 OFFSET 3`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT10`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT -1`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT`,
		`SELECT * WHERE { ?s ?p ?o } trailing`,
		`SELECT (COUNT(?x) AS) WHERE { ?s ?p ?o }`,
		`SELECT (SUM(*) AS ?x) WHERE { ?s ?p ?o }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", src)
		}
	}
	// SPARQL has no dataset clause in a SubSelect.
	const sub = "SELECT * WHERE {\n { SELECT * FROM <http://g> WHERE { ?s ?p ?o } } }"
	if _, err := Parse(sub); err == nil || err.Error() != "sparql: line 2: FROM is not allowed in a subquery" {
		t.Errorf("Parse(%q) = %v, want the subquery's FROM refused on line 2", sub, err)
	}
}

// TestParseMarksPageWindow: the parser records where the top-level
// LIMIT/OFFSET clauses begin, and the text before that offset is the query
// without them, whatever the spelling around the clauses.
func TestParseMarksPageWindow(t *testing.T) {
	const base = "SELECT * WHERE { ?s ?p ?o }"
	cases := []struct {
		src, before   string
		limit, offset int
	}{
		{base, base, -1, 0},
		{base + " LIMIT 10", base, 10, 0},
		{base + " OFFSET 5", base, -1, 5},
		{base + " LIMIT 10 OFFSET 5", base, 10, 5},
		{base + " OFFSET 5 LIMIT 10", base, 10, 5},
		{base + "\nLIMIT 10\nOFFSET 0\n", base, 10, 0},
		{base + " limit 10 offset 5", base, 10, 5},
		{base + " LIMIT 10 # page one", base, 10, 0},
		{base + " LIMIT 10 # page size\nOFFSET 5", base, 10, 5},
		{base + " # the frame\nLIMIT 10", base + " # the frame", 10, 0},
		{"SELECT * WHERE { ?s ?p 10 }", "SELECT * WHERE { ?s ?p 10 }", -1, 0},
		{base + " ORDER BY ?s LIMIT 3", base + " ORDER BY ?s", 3, 0},
		{"SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 2 } }", "SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 2 } }", -1, 0},
		{"SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 2 } } OFFSET 1", "SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 2 } }", -1, 1},
	}
	for _, tc := range cases {
		q := mustParse(t, tc.src)
		if before := strings.TrimRight(tc.src[:q.Window], " \t\r\n"); before != tc.before || q.Limit != tc.limit || q.Offset != tc.offset {
			t.Errorf("%q: got (%q, %d, %d), want (%q, %d, %d)",
				tc.src, before, q.Limit, q.Offset, tc.before, tc.limit, tc.offset)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, `select distinct ?s where { ?s ?p ?o } order by ?s limit 1`)
	if !q.Distinct || q.Limit != 1 || len(q.OrderBy) != 1 {
		t.Fatalf("lowercase keywords not handled: %+v", q)
	}
}

func TestParseListing2Shape(t *testing.T) {
	// The expert query of the paper's motivating example (Listing 2).
	src := `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
SELECT *
FROM <http://dbpedia.org>
WHERE
{ ?movie dbpp:starring ?actor
  { SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)
    WHERE
    { ?movie dbpp:starring ?actor .
      ?actor dbpp:birthPlace ?actor_country
      FILTER ( ?actor_country = dbpr:United_States )
    }
    GROUP BY ?actor
    HAVING ( COUNT(DISTINCT ?movie) >= 50 )
  }
  OPTIONAL
  { ?actor dbpp:academyAward ?award }
}`
	q := mustParse(t, src)
	if len(q.From) != 1 || !strings.Contains(q.From[0], "dbpedia") {
		t.Fatalf("FROM = %v", q.From)
	}
	kinds := make([]string, 0, len(q.Where.Elems))
	for _, el := range q.Where.Elems {
		switch el.(type) {
		case BGPElem:
			kinds = append(kinds, "bgp")
		case GroupElem:
			kinds = append(kinds, "group")
		case OptionalElem:
			kinds = append(kinds, "optional")
		}
	}
	if len(kinds) != 3 || kinds[0] != "bgp" || kinds[1] != "group" || kinds[2] != "optional" {
		t.Fatalf("element kinds = %v", kinds)
	}
}

// FuzzParse feeds arbitrary text to both parsers, which must answer with a
// query, an update or an error and never panic. Every text that parses as a
// query must parse, cut at its page window, to the same query without
// LIMIT/OFFSET (the result cache keys a page on that text), and is also
// evaluated, through Do on a ten-triple store under a 50 ms deadline: an
// error or a timeout is an answer, a panic is not. The seed corpus holds the
// queries of the parser tests, the examples of docs/query-reference.md and
// LIMIT/OFFSET spellings (window-*: lowercase, comments around the clauses,
// a subquery's own LIMIT). Every parsed query must also render to text that
// parses back to it (Window apart); a query holding a variable the parser
// minted for a sequence path is skipped there, as no text spells one.
func FuzzParse(f *testing.F) {
	f.Add(`SELECT * WHERE { ?s ?p ?o }`)
	eng := NewEngine(fuzzParseStore(f))
	eng.SetTimeout(50 * time.Millisecond)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseUpdate(src)
		q, err := Parse(src)
		if err != nil {
			return
		}
		roundTrips(t, src, q)
		unpaged, err := Parse(src[:q.Window])
		if err != nil {
			t.Fatalf("%q cut at its window %d does not parse: %v", src, q.Window, err)
		}
		want := *q
		want.Limit, want.Offset = -1, 0
		if !reflect.DeepEqual(unpaged, &want) {
			t.Fatalf("%q cut at its window %d parses to\n%+v\nwant\n%+v", src, q.Window, unpaged, &want)
		}
		// The HTTP client's page: the cut text and a window of its own.
		page := src[:q.Window] + "\nLIMIT 3 OFFSET 2"
		paged, err := Parse(page)
		if err != nil {
			t.Fatalf("%q does not parse: %v", page, err)
		}
		want.Limit, want.Offset, want.Window = 3, 2, q.Window+1
		if !reflect.DeepEqual(paged, &want) {
			t.Fatalf("%q parses to\n%+v\nwant\n%+v", page, paged, &want)
		}
		_, _ = eng.Do(context.Background(), Request{Query: src})
	})
}

// fuzzParseStore is FuzzParse's ten triples over the predicates and graphs
// the seed queries name, with IRI, plain, language-tagged and numeric
// objects.
func fuzzParseStore(tb testing.TB) *store.Store {
	tb.Helper()
	st := store.New()
	dbp := func(n string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/property/" + n) }
	res := func(n string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/resource/" + n) }
	for _, q := range []struct {
		g       string
		s, p, o rdf.Term
	}{
		{"http://dbpedia.org", res("movie1"), dbp("starring"), res("actor1")},
		{"http://dbpedia.org", res("movie1"), dbp("starring"), res("actor2")},
		{"http://dbpedia.org", res("movie2"), dbp("starring"), res("actor1")},
		{"http://dbpedia.org", res("actor1"), dbp("birthPlace"), res("United_States")},
		{"http://dbpedia.org", res("actor2"), dbp("birthPlace"), rdf.NewLangLiteral("Japan", "en")},
		{"http://dbpedia.org", res("movie1"), dbp("runtime"), rdf.NewInteger(90)},
		{"http://dbpedia.org", res("movie2"), dbp("runtime"), rdf.NewTypedLiteral("1.5e2", rdf.XSDDouble)},
		{"http://dbpedia.org", res("movie2"), dbp("title"), rdf.NewLiteral("Second")},
		{"http://yago", rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o")},
		{"http://yago", rdf.NewIRI("http://ex/o"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/s")},
	} {
		if err := st.Add(q.g, rdf.Triple{S: q.s, P: q.p, O: q.o}); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// TestParseLanguageTags: a tag is one token of name characters and '-', so
// a tag with subtags reads whole and nothing else follows an '@'.
func TestParseLanguageTags(t *testing.T) {
	e, err := ParseExpression(`"chat"@fr-CA = "x"@zh-Hant-TW`, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := e.(ExBinary)
	if l, r := b.L.(ExTerm).Term, b.R.(ExTerm).Term; l != rdf.NewLangLiteral("chat", "fr-CA") || r != rdf.NewLangLiteral("x", "zh-Hant-TW") {
		t.Fatalf("tags read as %v and %v", l, r)
	}
	for _, bad := range []string{`"x"@"en"`, `"x"@<http://en>`, `"x"@ en`, `"x"@`} {
		if _, err := ParseExpression(bad, nil); err == nil {
			t.Errorf("%s parsed", bad)
		}
	}
}

// TestAppendVarsAllocatesNothing: a pattern's variables come back in S,P,O
// order, and into a caller's [3]string buffer without an allocation.
func TestAppendVarsAllocatesNothing(t *testing.T) {
	tp := TriplePattern{S: Variable("s"), P: TermNode(rdf.NewIRI("http://ex/p")), O: Variable("o")}
	if got := tp.AppendVars(nil); !reflect.DeepEqual(got, []string{"s", "o"}) {
		t.Fatalf("AppendVars = %v, want [s o]", got)
	}
	var buf [3]string
	n := 0
	if allocs := testing.AllocsPerRun(100, func() { n = len(tp.AppendVars(buf[:0])) }); allocs != 0 || n != 2 {
		t.Fatalf("AppendVars into a buffer: %v allocations, %d variables; want 0 and 2", allocs, n)
	}
}
