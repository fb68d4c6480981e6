package sparql

import (
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Tests for the join edge cases the ID-space rewrite must preserve: shared
// variables unbound on one side (the needVerify path), cross products with
// no shared variables, OPTIONAL rows that match nothing, inconsistent
// re-binding within a single pattern, and the composite-key collisions the
// old string-based keys were vulnerable to.

// joinRows and leftJoinRows run evaluator.join serially with no deadline.
func joinRows(l, r *idRows) *idRows { return mustJoin(&evaluator{}, l, r, false) }

func leftJoinRows(l, r *idRows) *idRows { return mustJoin(&evaluator{}, l, r, true) }

func mustJoin(ev *evaluator, l, r *idRows, leftOuter bool) *idRows {
	out, err := ev.join(l, r, leftOuter)
	if err != nil {
		panic(err) // no deadline or context: the join cannot fail
	}
	return out
}

// rowsOf builds an idRows batch from term rows via the dictionary; nil
// terms stay unbound.
func rowsOf(d *evalDict, vars []string, rows ...[]rdf.Term) *idRows {
	out := newIDRows(vars)
	buf := make([]store.ID, len(vars))
	for _, r := range rows {
		for i := range buf {
			buf[i] = 0
			if i < len(r) {
				buf[i] = d.encode(r[i])
			}
		}
		out.appendRow(buf)
	}
	return out
}

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func TestJoinRowsNeedVerify(t *testing.T) {
	d := newEvalDict(store.NewDictionary())
	// ?y is bound on the right everywhere but only in some left rows, so
	// the hash key is ?x alone and ?y must be verified per pair.
	left := rowsOf(d, []string{"x", "y"},
		[]rdf.Term{iri("a"), iri("u")},
		[]rdf.Term{iri("a"), {}},
		[]rdf.Term{iri("b"), iri("v")},
	)
	right := rowsOf(d, []string{"x", "y", "z"},
		[]rdf.Term{iri("a"), iri("u"), iri("z1")},
		[]rdf.Term{iri("a"), iri("w"), iri("z2")},
		[]rdf.Term{iri("b"), iri("v"), iri("z3")},
	)
	out := joinRows(left, right)
	// Row 1 (a,u) matches only (a,u,z1); row 2 (a,unbound) is compatible
	// with both right rows for x=a and adopts their ?y; row 3 matches z3.
	if out.n != 4 {
		t.Fatalf("rows = %d, want 4", out.n)
	}
	yCol, _ := out.col("y")
	zCol, _ := out.col("z")
	if d.decode(out.at(0, zCol)) != iri("z1") {
		t.Fatalf("row 0 z = %v", d.decode(out.at(0, zCol)))
	}
	// The unbound left ?y must be filled from the right side.
	if d.decode(out.at(1, yCol)) != iri("u") || d.decode(out.at(2, yCol)) != iri("w") {
		t.Fatalf("verify rows y = %v, %v", d.decode(out.at(1, yCol)), d.decode(out.at(2, yCol)))
	}
}

func TestJoinRowsCrossProduct(t *testing.T) {
	d := newEvalDict(store.NewDictionary())
	left := rowsOf(d, []string{"a"}, []rdf.Term{iri("l1")}, []rdf.Term{iri("l2")})
	right := rowsOf(d, []string{"b"}, []rdf.Term{iri("r1")}, []rdf.Term{iri("r2")}, []rdf.Term{iri("r3")})
	out := joinRows(left, right)
	if out.n != 6 || out.width() != 2 {
		t.Fatalf("rows = %d width = %d, want 6 x 2", out.n, out.width())
	}
	// Left-major order, matching the Binding-based join.
	aCol, _ := out.col("a")
	if d.decode(out.at(2, aCol)) != iri("l1") || d.decode(out.at(3, aCol)) != iri("l2") {
		t.Fatal("cross product is not left-major")
	}
}

func TestLeftJoinRowsUnmatchedKeepsRow(t *testing.T) {
	d := newEvalDict(store.NewDictionary())
	left := rowsOf(d, []string{"x"}, []rdf.Term{iri("a")}, []rdf.Term{iri("b")})
	right := rowsOf(d, []string{"x", "w"}, []rdf.Term{iri("a"), iri("award")})
	out := leftJoinRows(left, right)
	if out.n != 2 {
		t.Fatalf("rows = %d, want 2", out.n)
	}
	wCol, _ := out.col("w")
	if out.at(1, wCol) != 0 {
		t.Fatal("unmatched OPTIONAL row must keep ?w unbound")
	}
	if d.decode(out.at(0, wCol)) != iri("award") {
		t.Fatal("matched row lost its binding")
	}
}

func TestLeftJoinRowsEmptyRightIsIdentity(t *testing.T) {
	d := newEvalDict(store.NewDictionary())
	left := rowsOf(d, []string{"x"}, []rdf.Term{iri("a")})
	right := newIDRows([]string{"x", "w"})
	out := leftJoinRows(left, right)
	if out.n != 1 {
		t.Fatalf("rows = %d, want 1", out.n)
	}
}

func TestEvalInconsistentRebindWithinPattern(t *testing.T) {
	s := store.New()
	self := rdf.NewIRI("http://ex/self")
	a, b := iri("a"), iri("b")
	s.Add(testGraph, rdf.Triple{S: a, P: self, O: a})
	s.Add(testGraph, rdf.Triple{S: a, P: self, O: b})
	s.Add(testGraph, rdf.Triple{S: b, P: self, O: a})
	e := NewEngine(s)
	// ?y is bound by the first pattern, then re-used in both positions of
	// the second: only y=a satisfies y self y.
	rows := queryRows(t, e, `SELECT ?x ?y WHERE { ?x <http://ex/self> ?y . ?y <http://ex/self> ?y }`)
	for _, r := range rows {
		if r[1] != "<http://ex/a>" {
			t.Fatalf("inconsistent rebinding slipped through: %v", rows)
		}
	}
	if len(rows) != 2 { // (a,a) and (b,a)
		t.Fatalf("rows = %v, want 2", rows)
	}
}

func TestEvalUnionMixedBoundThenJoined(t *testing.T) {
	// After a UNION, ?g is a column bound only in one branch's rows; a
	// following pattern must bind it for the other branch's rows instead
	// of dropping them.
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?g WHERE {
	  { ?m <http://ex/genre> ?g } UNION { ?m <http://ex/title> "Third" }
	  ?m <http://ex/genre> ?g .
	}`)
	// Branch 1: m1/Drama, m2/Comedy both re-match; branch 2 binds m3,
	// which has no genre, so it joins away.
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
}

// TestGroupByCompositeKeyCollision crafts IRI values whose old
// Term.String()+"\x00" concatenations were identical across two different
// (?x, ?y) pairs: ("a>\x00<b", "c") and ("a", "b>\x00<c") both rendered as
// "<a>\x00<b>\x00<c>\x00". Keying groups on id tuples must keep them apart.
func TestGroupByCompositeKeyCollision(t *testing.T) {
	s := store.New()
	p1, p2 := rdf.NewIRI("http://ex/p1"), rdf.NewIRI("http://ex/p2")
	x1, y1 := rdf.NewIRI("a>\x00<b"), rdf.NewIRI("c")
	x2, y2 := rdf.NewIRI("a"), rdf.NewIRI("b>\x00<c")
	s.Add(testGraph, rdf.Triple{S: iri("s1"), P: p1, O: x1})
	s.Add(testGraph, rdf.Triple{S: iri("s1"), P: p2, O: y1})
	s.Add(testGraph, rdf.Triple{S: iri("s2"), P: p1, O: x2})
	s.Add(testGraph, rdf.Triple{S: iri("s2"), P: p2, O: y2})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT ?x ?y (COUNT(?s) AS ?n) WHERE {
	  ?s <http://ex/p1> ?x . ?s <http://ex/p2> ?y
	} GROUP BY ?x ?y`)
	if len(rows) != 2 {
		t.Fatalf("colliding composite keys merged groups: %v", rows)
	}
	rows = queryRows(t, e, `SELECT DISTINCT ?x ?y WHERE {
	  ?s <http://ex/p1> ?x . ?s <http://ex/p2> ?y
	}`)
	if len(rows) != 2 {
		t.Fatalf("colliding composite keys merged DISTINCT rows: %v", rows)
	}
}

// TestJoinBindingsCompositeKeyCollision checks the exported Binding-based
// join against the same collision: with the old separator-based key the two
// incompatible rows hashed identically and were merged without
// verification.
func TestJoinBindingsCompositeKeyCollision(t *testing.T) {
	left := []Binding{{"x": rdf.NewIRI("a>\x00<b"), "y": rdf.NewIRI("c")}}
	right := []Binding{{"x": rdf.NewIRI("a"), "y": rdf.NewIRI("b>\x00<c"), "z": iri("z")}}
	if out := JoinBindings(left, right); len(out) != 0 {
		t.Fatalf("incompatible rows joined via key collision: %v", out)
	}
}
