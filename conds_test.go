package rdfframes

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rdfframes/internal/sparql"
)

// TestFilterRejectsUnwritableConds: a condition whose operand cannot be
// written as a SPARQL term fails at Filter with a FrameError instead of
// generating a query that does not parse.
func TestFilterRejectsUnwritableConds(t *testing.T) {
	g := dbpediaGraph()
	for _, cond := range []string{`="abc`, `in("a", "b\", "c")`, `= <http://ex/a b>`, `=dbpr:United States`, `>1e5`} {
		_, err := g.Seed("movie", "dbpp:title", "title").Filter(Conds{"title": {cond}}).ToSPARQL()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v, want a FrameError", cond, err)
		}
	}
	q, err := g.Seed("movie", "dbpp:title", "title").Filter(Conds{"title": {`in("a, b", "c\"d")`}}).ToSPARQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, `?title IN ("a, b", "c\"d")`) {
		t.Errorf("quoted commas and escaped quotes split the list:\n%s", q)
	}
}

// TestFrameAPIRejectsUnwritableIRIs: an IRI given to Seed,
// FeatureDomainRange, Entities or Expand that SPARQL cannot write is a
// FrameError when the frame is built, not a query that fails to parse.
func TestFrameAPIRejectsUnwritableIRIs(t *testing.T) {
	g := dbpediaGraph()
	entries := []struct {
		name  string
		frame func(iri string) *RDFFrame
	}{
		{"Seed", func(iri string) *RDFFrame { return g.Seed("movie", "dbpp:starring", iri) }},
		{"FeatureDomainRange", func(iri string) *RDFFrame { return g.FeatureDomainRange(iri, "movie", "actor") }},
		{"Entities", func(iri string) *RDFFrame { return g.Entities(iri, "movie") }},
		{"Expand", func(iri string) *RDFFrame {
			return g.Seed("movie", "dbpp:starring", "actor").Expand("actor", Out(iri, "country"))
		}},
	}
	for _, e := range entries {
		if _, err := e.frame("dbpp:birthPlace").ToSPARQL(); err != nil {
			t.Fatalf("%s(dbpp:birthPlace): %v", e.name, err)
		}
		for _, iri := range []string{"<http://a b>", "dbpp:a>b", "<http://ex/a\"b>", "dbpp:a{b}"} {
			_, err := e.frame(iri).ToSPARQL()
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Errorf("%s(%s): error %v, want a FrameError", e.name, iri, err)
			}
		}
	}
}

// FuzzConds: every condition Filter accepts — a type test, an In(…) list,
// a comparison, a raw expression — builds an expression tree that renders
// to text the query parser reads back to the same tree, and every condition
// it refuses is refused with a FrameError.
func FuzzConds(f *testing.F) {
	for _, seed := range []string{
		"isURI", "isLiteral", "isBlank", "isNumeric", ">=1990", "<2020", "!=-3.5", "=dbpr:United_States",
		"In(dbpr:Canada, dbpr:Mexico)", `in("a", 'b', 3)`, `="x"@en`, `="5"^^xsd:integer`, "=<http://ex/a>", "=word",
		`regex(str(?x), "USA")`, `year(xsd:dateTime(?x)) >= 2005 && ?x != dbpr:Paris`,
	} {
		f.Add(seed)
	}
	g := dbpediaGraph()
	f.Fuzz(func(t *testing.T, cond string) {
		expr, err := buildCondition(g, "x", cond)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("%q: error %v is not a FrameError", cond, err)
			}
			return
		}
		text := sparql.RenderExpression(expr)
		back, err := sparql.ParseExpression(text, nil)
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", cond, text, err)
		}
		if !reflect.DeepEqual(back, expr) {
			t.Fatalf("%q renders %q, which parses to %#v, not %#v", cond, text, back, expr)
		}
	})
}

// TestBadFilterRawFailsBeforeAnyRequest: a raw expression is parsed when
// the frame is built, so one that does not parse is a FrameError from
// ToSPARQL and Execute, and the endpoint never sees a request.
func TestBadFilterRawFailsBeforeAnyRequest(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusBadRequest)
	}))
	defer srv.Close()
	f := dbpediaGraph().Seed("x", "dbpp:title", "title").FilterRaw("x", "regex(?x")
	var fe *FrameError
	if _, err := f.ToSPARQL(); !errors.As(err, &fe) {
		t.Errorf("ToSPARQL: error %v, want a FrameError", err)
	}
	if _, err := f.Execute(ConnectHTTP(srv.URL, 0)); !errors.As(err, &fe) {
		t.Errorf("Execute: error %v, want a FrameError", err)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the endpoint saw %d requests", n)
	}
}
