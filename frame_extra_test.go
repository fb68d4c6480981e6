package rdfframes

import (
	"reflect"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// TestOptionalExpandAfterFullOuterJoin locks in a translator invariant
// found by randomized differential testing: an optional expand recorded
// after a join must render its OPTIONAL block after the join's patterns,
// or the left join applies to the empty solution and behaves like an
// inner join.
func TestOptionalExpandAfterFullOuterJoin(t *testing.T) {
	st := miniDBpedia(t)
	g := dbpediaGraph()
	left := g.FeatureDomainRange("dbpp:starring", "movie", "actor")
	grouped := g.FeatureDomainRange("dbpp:starring", "movie", "actor").
		GroupBy("movie").CountDistinct("actor", "cast_size")
	frame := left.Join(grouped, "movie", FullOuterJoin).
		Expand("actor", Out("dbpp:academyAward", "award").Opt())

	q, err := frame.ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	optIdx := strings.Index(q, "OPTIONAL {\n    ?actor")
	unionIdx := strings.Index(q, "UNION")
	if optIdx < 0 || unionIdx < 0 {
		t.Fatalf("expected OPTIONAL award block and UNION in:\n%s", q)
	}
	if optIdx < unionIdx {
		t.Fatalf("optional expand rendered before the union it extends:\n%s", q)
	}

	df, err := frame.Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	// Rows without awards must survive (left-join semantics).
	withNull := 0
	for i := 0; i < df.Len(); i++ {
		if !df.Cell(i, "award").IsBound() {
			withNull++
		}
	}
	if withNull == 0 {
		t.Fatal("optional expand behaved like an inner join")
	}
}

func TestSearchLabels(t *testing.T) {
	st := miniDBpedia(t)
	df, err := dbpediaGraph().SearchLabels("actor 1", "entity", "label").
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 1 || df.Cell(0, "label").Value != "Actor 1" {
		t.Fatalf("search = %s", df)
	}
}

func TestCondsInWithQuotedStrings(t *testing.T) {
	g := dbpediaGraph()
	q, err := g.FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("movie", Out("rdfs:label", "name")).
		Filter(Conds{"name": {`In("A, B", "C")`}}).
		ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, `?name IN ("A, B", "C")`) {
		t.Fatalf("quoted IN mishandled:\n%s", q)
	}
}

func TestCondsBareWordBecomesLiteral(t *testing.T) {
	g := dbpediaGraph()
	q, err := g.FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("movie", Out("rdfs:label", "name")).
		Filter(Conds{"name": {"=Inception"}}).
		ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, `?name = "Inception"`) {
		t.Fatalf("bare word not rendered as literal:\n%s", q)
	}
}

func TestSeedWithLiteralObject(t *testing.T) {
	st := miniDBpedia(t)
	df, err := dbpediaGraph().Seed("m", "rdfs:label", `"Movie 0"`).
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 1 {
		t.Fatalf("rows = %d, want 1", df.Len())
	}
}

func TestSliceWithOffset(t *testing.T) {
	st := miniDBpedia(t)
	all, err := dbpediaGraph().FeatureDomainRange("dbpp:starring", "movie", "actor").
		Sort(Asc("movie"), Asc("actor")).
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := dbpediaGraph().FeatureDomainRange("dbpp:starring", "movie", "actor").
		Sort(Asc("movie"), Asc("actor")).
		Slice(5, 3).
		Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Len() != 5 {
		t.Fatalf("slice = %d rows", sliced.Len())
	}
	if sliced.Cell(0, "movie") != all.Cell(3, "movie") {
		t.Fatalf("offset not applied: %v vs %v", sliced.Cell(0, "movie"), all.Cell(3, "movie"))
	}
}

func TestFrameErrShortCircuitsEverything(t *testing.T) {
	g := dbpediaGraph()
	bad := g.Seed("a b c", "dbpp:x", "y") // invalid column
	// Every subsequent call must keep (not panic on) the error.
	f := bad.Expand("x", Out("dbpp:y", "z")).
		Filter(Conds{"z": {">=1"}}).
		GroupBy("z").Count("x", "n").
		Sort(Asc("n")).
		Head(5)
	if f.Err() == nil {
		t.Fatal("error lost along the chain")
	}
	if _, err := f.Execute(nil); err == nil {
		t.Fatal("Execute must surface the recorded error")
	}
	if _, err := f.ToNaiveSPARQL(); err == nil {
		t.Fatal("ToNaiveSPARQL must surface the recorded error")
	}
	if _, err := f.QueryModel(); err == nil {
		t.Fatal("QueryModel must surface the recorded error")
	}
}

func TestJoinWithFailedRightSide(t *testing.T) {
	g := dbpediaGraph()
	good := g.FeatureDomainRange("dbpp:starring", "movie", "actor")
	bad := g.Seed("a b", "dbpp:x", "y")
	if _, err := good.Join(bad, "actor", InnerJoin).ToSPARQL(); err == nil {
		t.Fatal("join with failed frame must propagate its error")
	}
}

func TestGroupedFrameOnFailedFrame(t *testing.T) {
	g := dbpediaGraph()
	bad := g.Seed("a b", "dbpp:x", "y")
	f := bad.GroupBy("y").Count("a", "n")
	if f.Err() == nil {
		t.Fatal("grouping on failed frame must keep the error")
	}
}

func TestMultipleAggregationsOnOneGroup(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://dbpedia.org/property/rating")
	for i, v := range []int64{3, 5, 4, 2} {
		sub := rdf.NewIRI("http://dbpedia.org/resource/m" + string(rune('0'+i%2)))
		if err := st.Add(dbpediaURI, rdf.Triple{S: sub, P: p, O: rdf.NewInteger(v)}); err != nil {
			t.Fatal(err)
		}
	}
	g := dbpediaGraph()
	grouped := g.Seed("movie", "dbpp:rating", "rating").GroupBy("movie")
	// Two aggregations over the same grouping, chained via the frame from
	// the first aggregation's grouped structure.
	df, err := grouped.Count("rating", "n").Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 2 {
		t.Fatalf("groups = %d", df.Len())
	}
	sum, err := grouped.Sum("rating", "total").Execute(ConnectStore(st))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < sum.Len(); i++ {
		v, _ := sum.Cell(i, "total").AsInt()
		total += v
	}
	if total != 14 {
		t.Fatalf("sum of sums = %d, want 14", total)
	}
}

// TestJoinRenameSkipsLiteralsAndIRIs: a join that renames a column rewrites
// the column's variables, in either spelling, and leaves the same text
// inside string literals and IRIs alone; a '<' between variables stays a
// comparison. Both generators agree.
func TestJoinRenameSkipsLiteralsAndIRIs(t *testing.T) {
	g := dbpediaGraph()
	titled := g.Seed("movie", "dbpp:title", "title").
		FilterRaw("title", `?title != "?movie" && ?title != <http://ex/q?movie> && $movie != ?title && ?movie < ?title`)
	f := titled.JoinOn(g.Seed("film", "dbpp:starring", "actor"), "movie", "film", InnerJoin, "m")
	want, err := sparql.ParseExpression(`?title != "?movie" && ?title != <http://ex/q?movie> && ?m != ?title && ?m < ?title`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, render := range map[string]func() (string, error){"ToSPARQL": f.ToSPARQL, "ToNaiveSPARQL": f.ToNaiveSPARQL} {
		text, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, text)
		}
		conds := filtersOf(q.Where)
		if len(conds) != 1 || !reflect.DeepEqual(conds[0], want) {
			t.Errorf("%s: filters %v, want %s, in\n%s", name, conds, sparql.RenderExpression(want), text)
		}
	}
}

// filtersOf returns the FILTER conditions anywhere in a group.
func filtersOf(g *sparql.Group) []sparql.Expression {
	var out []sparql.Expression
	for _, el := range g.Elems {
		switch e := el.(type) {
		case sparql.FilterElem:
			out = append(out, e.Cond)
		case sparql.GroupElem:
			out = append(out, filtersOf(e.Group)...)
		case sparql.OptionalElem:
			out = append(out, filtersOf(e.Group)...)
		case sparql.SubQueryElem:
			out = append(out, filtersOf(e.Query.Where)...)
		}
	}
	return out
}
