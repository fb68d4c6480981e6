package rdfframes

import (
	"errors"
	"strings"
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

// FuzzConds: every condition that renderCondition renders itself — a type
// test, an In(…) list, a comparison — is an expression the query parser
// accepts under the graph's prefixes, and every condition it refuses is
// refused with a FrameError. A raw expression passes through as the user's
// SPARQL for whatever endpoint, so it is not checked.
func FuzzConds(f *testing.F) {
	for _, seed := range []string{
		"isURI", "isLiteral", "isBlank", "isNumeric", ">=1990", "<2020", "!=-3.5", "=dbpr:United_States",
		"In(dbpr:Canada, dbpr:Mexico)", `in("a", 'b', 3)`, `="x"@en`, `="5"^^xsd:integer`, "=<http://ex/a>", "=word",
		`regex(str(?x), "USA")`,
	} {
		f.Add(seed)
	}
	g := dbpediaGraph()
	f.Fuzz(func(t *testing.T, cond string) {
		expr, err := renderCondition(g, "x", cond)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("%q: error %v is not a FrameError", cond, err)
			}
			return
		}
		if expr == strings.TrimSpace(cond) {
			return // raw pass-through
		}
		if _, err := sparql.ParseExpression(expr, g.prefixes); err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", cond, expr, err)
		}
	})
}
