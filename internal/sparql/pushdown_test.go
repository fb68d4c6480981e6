package sparql

import (
	"reflect"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// A FILTER may run early, inside a BGP segment, only once every variable
// it reads is final: a row it rejects must be one the group-end FILTER
// would reject too. A variable an OPTIONAL or a UNION branch leaves unbound
// in some rows is not final while a later pattern can still bind it.

// pushdownStore holds two subjects with :a, :q and :r; only m2 has :p, so
// an OPTIONAL over :p leaves ?x unbound for m1 until ?m :r ?x binds it.
func pushdownStore(t *testing.T) *store.Store {
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	var triples []rdf.Triple
	for _, m := range []string{"m1", "m2"} {
		triples = append(triples,
			rdf.Triple{S: ex(m), P: ex("a"), O: ex("y0")},
			rdf.Triple{S: ex(m), P: ex("q"), O: ex("w")},
			rdf.Triple{S: ex(m), P: ex("r"), O: ex("v")})
	}
	triples = append(triples,
		rdf.Triple{S: ex("m2"), P: ex("p"), O: ex("v")},
		rdf.Triple{S: ex("m1"), P: ex("s"), O: ex("t")})
	st := store.New()
	if err := st.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPushdownWaitsForFinalBinding runs each shape with its FILTER in the
// group and, as the reference, with the patterns in a nested group, which
// forces the FILTER to the end of the outer group. Both must return the
// same rows, the stated number of them, under the planner and under
// DisableReorder at 1 and 4 workers; and EXPLAIN must show the FILTER
// pushed down right after the step named.
func TestPushdownWaitsForFinalBinding(t *testing.T) {
	st := pushdownStore(t)
	cases := []struct {
		name, body, filter string
		rows               int
		after              string // the scan the FILTER is pushed below
	}{
		{"OPTIONAL leaves ?x unbound until a later pattern",
			`?m :a ?y0 . OPTIONAL { ?m :p ?x } ?m :q ?y . ?m :r ?x .`,
			`?x = :v && ?y = :w`, 2, "scan ?m <http://ex/r> ?x"},
		{"only one UNION branch binds ?x",
			`?m :a ?y0 . { ?m :p ?x } UNION { ?m :a ?z } ?m :q ?y . ?m :r ?x .`,
			`?x = :v && ?y = :w`, 3, "scan ?m <http://ex/r> ?x"},
		{"?x bound only by a later segment, after another OPTIONAL",
			`?m :a ?y0 . OPTIONAL { ?m :p ?x } ?m :q ?y . OPTIONAL { ?m :s ?u } ?m :r ?x .`,
			`?x = :v && ?y = :w`, 2, "scan ?m <http://ex/r> ?x"},
		{"OPTIONAL variable nothing later mentions",
			`?m :a ?y0 . OPTIONAL { ?m :p ?x } ?m :q ?y .`,
			`!bound(?x) && ?y = :w`, 1, "scan ?m <http://ex/q> ?y"},
	}
	const prefix = `PREFIX : <http://ex/> SELECT ?m ?x ?y WHERE { `
	for _, tc := range cases {
		query := prefix + tc.body + ` FILTER(` + tc.filter + `) }`
		ref := prefix + `{ ` + tc.body + ` } FILTER(` + tc.filter + `) }`
		for _, textual := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				e := NewEngine(st)
				e.DisableReorder = textual
				e.Parallelism = workers
				got, err := runQuery(e, query)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runQuery(e, ref)
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() != tc.rows || !reflect.DeepEqual(got, want) {
					t.Errorf("%s (DisableReorder %v, %d workers): got %v, the FILTER at the group's end %v (want %d rows)",
						tc.name, textual, workers, got.Rows, want.Rows, tc.rows)
				}
			}
		}
		rep, err := NewEngine(st).Explain(query)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(rep.PlanText(), "\n")
		at := -1
		for i, l := range lines {
			if strings.Contains(l, "filter ") {
				at = i
			}
		}
		if at < 1 || !strings.Contains(lines[at], "[pushed down]") || !strings.Contains(lines[at-1], tc.after) {
			t.Errorf("%s: FILTER not pushed down below %q:\n%s", tc.name, tc.after, rep.PlanText())
		}
	}
}
