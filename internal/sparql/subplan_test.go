package sparql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Once-per-query subplans: a subquery or a group's leading BGP segment that
// occurs twice in a query is evaluated once and its output handed to the
// other occurrence. These tests pin which shapes are shared, that a sharer
// changing its batch in place (BIND, residual FILTER, ORDER BY/LIMIT,
// DISTINCT) never changes what the others see, and that EXPLAIN shows a
// reused operator with its twin's actuals.

const (
	subStarring = `?m <http://ex/starring> ?a`
	subSelect   = `{ SELECT ?m ?a WHERE { ` + subStarring + ` } }`
)

// reuseStore holds 1,500 (movie, actor) pairs over seven actors in the test
// graph, each actor's birth place, and the first 300 pairs again in a second
// graph, loaded (and so scanned) first: enough rows for a sort to rank its
// key columns in place, and under the default union graph duplicates for
// DISTINCT to close the gaps of.
func reuseStore(t *testing.T) *store.Store {
	st := store.New()
	ex := func(format string, a ...any) rdf.Term { return rdf.NewIRI("http://ex/" + fmt.Sprintf(format, a...)) }
	var pairs []rdf.Triple
	for i := 0; i < 1500; i++ {
		pairs = append(pairs, rdf.Triple{S: ex("m%04d", i), P: ex("starring"), O: ex("a%d", i%7)})
	}
	for a := 0; a < 7; a++ {
		pairs = append(pairs, rdf.Triple{S: ex("a%d", a), P: ex("birthPlace"), O: ex("c%d", a%3)})
	}
	if err := st.AddAll("http://test.org/again", pairs[:300]); err != nil {
		t.Fatal(err)
	}
	if err := st.AddAll(testGraph, pairs); err != nil {
		t.Fatal(err)
	}
	return st
}

// reuseCase is one query with the number of subplan reuses one evaluation
// of it performs under the planner.
type reuseCase struct {
	name   string
	query  string
	reuses int64
}

var reuseCases = []reuseCase{
	{"no repeated shape", `SELECT * WHERE { ` + subStarring + ` . ?a <http://ex/birthPlace> ?c }`, 0},
	// The subquery twice, and inside each copy its leading segment: the
	// second copy is a hit as a whole, so its segment is never reached.
	{"BIND on one copy, FILTER on the other", `SELECT * WHERE {
		{ ` + subSelect + ` BIND(str(?a) AS ?x) } UNION { ` + subSelect + ` FILTER(?a != <http://ex/a3>) } }`, 1},
	// The same leading segment in three groups. BIND adds a column, the
	// filter cannot be pushed into the segment (?zz never binds) and
	// compacts the batch in place, the third branch reads it untouched.
	{"leading segment, BIND / residual FILTER / plain", `SELECT * WHERE {
		{ ` + subStarring + ` BIND(str(?m) AS ?x) } UNION
		{ ` + subStarring + ` FILTER(!bound(?zz) && ?a = <http://ex/a3>) } UNION
		{ ` + subStarring + ` } }`, 2},
	// ORDER BY + LIMIT sort and cut the subquery's batch in place; its
	// leading segment is shared with the other branch.
	{"sliced subquery over a shared segment", `SELECT * WHERE {
		{ SELECT ?m ?a WHERE { ` + subStarring + ` } ORDER BY DESC(?m) LIMIT 2 } UNION { ` + subStarring + ` } }`, 1},
	// The whole sorted, sliced subquery twice: its output is an order over
	// one segment, which the second copy reads through the memo's header
	// and the first filters.
	{"sorted subquery twice", `SELECT * WHERE {
		{ { SELECT ?a ?c WHERE { ?a <http://ex/birthPlace> ?c } ORDER BY DESC(?c) LIMIT 5 } FILTER(?a != <http://ex/a1>) } UNION
		{ SELECT ?a ?c WHERE { ?a <http://ex/birthPlace> ?c } ORDER BY DESC(?c) LIMIT 5 } }`, 1},
	// DISTINCT over an identity projection removes the second graph's
	// duplicates in place.
	{"DISTINCT subquery over a shared segment", `SELECT * WHERE {
		{ SELECT DISTINCT ?m ?a WHERE { ` + subStarring + ` } } UNION { ` + subStarring + ` } }`, 1},
	// A pushed-down filter is part of the shape: the filtered copy shares
	// with nothing, the two plain copies with each other.
	{"pushed filter splits the class", `SELECT * WHERE {
		{ ` + subStarring + ` FILTER(?a = <http://ex/a2>) } UNION { ` + subStarring + ` } UNION { ` + subStarring + ` } }`, 1},
	// Same text, different graphs: not the same subplan.
	{"GRAPH scopes differ", `SELECT * WHERE {
		{ GRAPH <` + testGraph + `> { ` + subStarring + ` } } UNION { GRAPH <http://other> { ` + subStarring + ` } } }`, 0},
	// A segment that follows a BIND does not start from the unit solution.
	{"not leading", `SELECT * WHERE {
		{ BIND(<http://ex/m0001> AS ?m) ` + subStarring + ` } UNION { BIND(<http://ex/m0001> AS ?m) ` + subStarring + ` } }`, 0},
	// Precedence the plan text does not show: (A || B) && C against
	// A || (B && C). Equal shapes, different syntax, nothing shared.
	{"same plan text, different expression", `SELECT * WHERE {
		{ ` + subStarring + ` FILTER((?a = <http://ex/a1> || ?a = <http://ex/a2>) && ?m = <http://ex/m0001>) } UNION
		{ ` + subStarring + ` FILTER(?a = <http://ex/a1> || (?a = <http://ex/a2> && ?m = <http://ex/m0001>)) } }`, 0},
}

// TestSubplanReuse: every case returns, with sharing, exactly what the
// un-shared, textual-order reference path (DisableReorder) returns, at 1 and 4 workers,
// and performs the stated number of reuses.
func TestSubplanReuse(t *testing.T) {
	st := reuseStore(t)
	for _, tc := range reuseCases {
		ref := NewEngine(st)
		ref.DisableReorder = true
		want, err := runQuery(ref, tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := ref.execStats.subplanReuses.Load(); n != 0 {
			t.Fatalf("%s: %d reuses under DisableReorder", tc.name, n)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: the case matches nothing", tc.name)
		}
		for _, workers := range []int{1, 4} {
			e := NewEngine(st)
			e.Parallelism = workers
			got, err := runQuery(e, tc.query)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d workers: shared evaluation returns\n%v\nthe un-shared one\n%v", tc.name, workers, got.Rows, want.Rows)
			}
			if n := e.execStats.subplanReuses.Load(); n != tc.reuses {
				t.Errorf("%s: %d reuses, want %d", tc.name, n, tc.reuses)
			}
		}
	}
}

// TestSubplanReuseExplain: a reused operator reports the actuals of the
// evaluation it took its rows from, so the two copies read the same, and the
// report says how many subplans were reused — in Text, not in PlanText.
func TestSubplanReuseExplain(t *testing.T) {
	e := NewEngine(movieStore(t))
	rep, err := e.Explain(`SELECT * WHERE { { ` + subSelect + ` } UNION { ` + subSelect + ` FILTER(!bound(?zz)) } }`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubplanReuses != 1 || rep.Rows != 10 {
		t.Fatalf("%d reuses, %d rows; want 1 and 10", rep.SubplanReuses, rep.Rows)
	}
	scan := "scan " + subStarring + "  (est=5, actual=5)"
	if n := strings.Count(rep.PlanText(), scan); n != 2 {
		t.Fatalf("%d scans with actuals, want the evaluated one and its reused twin:\n%s", n, rep.PlanText())
	}
	if strings.Contains(rep.PlanText(), "reused") || !strings.HasSuffix(rep.Text(), "reused 1 subplans\n") {
		t.Fatalf("Text must end with the reuse count and PlanText not have it:\n%s", rep.Text())
	}
	plain, err := e.Explain(`SELECT * WHERE { ` + subStarring + ` }`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Text(), "reused") {
		t.Fatalf("a query without repeated shapes mentions reuse:\n%s", plain.Text())
	}
}
