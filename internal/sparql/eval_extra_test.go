package sparql

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func TestEvalOptionalContainingGraphBlock(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	q := rdf.NewIRI("http://ex/q")
	x := rdf.NewIRI("http://ex/x")
	s.Add("http://g1", rdf.Triple{S: x, P: p, O: rdf.NewLiteral("base")})
	s.Add("http://g2", rdf.Triple{S: x, P: q, O: rdf.NewLiteral("extra")})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT * WHERE {
	  GRAPH <http://g1> { ?s <http://ex/p> ?v }
	  OPTIONAL { GRAPH <http://g2> { ?s <http://ex/q> ?w } }
	}`)
	if len(rows) != 1 || rows[0][2] != `"extra"` {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalOrderByExpression(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/v")
	for i, v := range []int64{5, -9, 3} {
		s.Add(testGraph, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: rdf.NewInteger(v)})
	}
	e := NewEngine(s)
	res, err := runQuery(e, `SELECT ?v WHERE { ?s <http://ex/v> ?v } ORDER BY DESC(abs(?v))`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != -9 {
		t.Fatalf("first = %v", res.Rows[0][0])
	}
}

func TestEvalNestedSubqueryProjectionScopes(t *testing.T) {
	e := NewEngine(movieStore(t))
	// The inner query's un-projected variables must not leak out.
	res, err := runQuery(e, `SELECT * WHERE {
	  { SELECT ?a WHERE { ?m <http://ex/starring> ?a } }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "a" {
		t.Fatalf("vars = %v (inner ?m must not leak)", res.Vars)
	}
}

// TestEvalFilterPushdownEquivalence: a FILTER pushed down into the BGP
// pipeline keeps exactly the rows it keeps at the end of its group, where
// it runs when the patterns sit in a nested group.
func TestEvalFilterPushdownEquivalence(t *testing.T) {
	st := movieStore(t)
	body := `?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c .`
	filter := `FILTER ( ?c = <http://ex/US> )`
	pushed := `SELECT * WHERE { ` + body + ` ` + filter + ` }`
	atEnd := `SELECT * WHERE { { ` + body + ` } ` + filter + ` }`
	textual := NewEngine(st)
	textual.DisableReorder = true
	for _, e := range []*Engine{NewEngine(st), textual} {
		r1, err := runQuery(e, pushed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runQuery(e, atEnd)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Rows) == 0 || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("pushdown changed results (DisableReorder %v):\n%v\nat the end of the group:\n%v", e.DisableReorder, r1.Rows, r2.Rows)
		}
	}
	for q, placement := range map[string]string{pushed: "[pushed down]", atEnd: "[residual]"} {
		rep, err := NewEngine(st).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.PlanText(), placement) {
			t.Fatalf("filter not %s:\n%s", placement, rep.PlanText())
		}
	}
}

func TestEvalDeterministicOrderAcrossRuns(t *testing.T) {
	st := movieStore(t)
	e := NewEngine(st)
	query := `SELECT * WHERE { ?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c }`
	first, err := runQuery(e, query)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := runQuery(e, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != len(first.Rows) {
			t.Fatal("row count changed")
		}
		for j := range first.Rows {
			for k := range first.Rows[j] {
				if first.Rows[j][k] != again.Rows[j][k] {
					t.Fatalf("row order not deterministic at %d,%d (pagination would break)", j, k)
				}
			}
		}
	}
}

func TestEngineConcurrentReaders(t *testing.T) {
	st := movieStore(t)
	e := NewEngine(st)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runQuery(e, `SELECT * WHERE { ?m <http://ex/starring> ?a }`)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != 5 {
				errs <- fmt.Errorf("got %d rows", len(res.Rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEvalHavingWithoutProjectingAggregate(t *testing.T) {
	e := NewEngine(movieStore(t))
	// HAVING references an aggregate that is not in the projection.
	rows := queryRows(t, e, `SELECT ?a WHERE {
	  ?m <http://ex/starring> ?a
	} GROUP BY ?a HAVING ( COUNT(?m) >= 2 )`)
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
}

func TestEvalUnionWithDisjointVars(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT * WHERE {
	  { ?m <http://ex/genre> ?g } UNION { ?a <http://ex/award> ?w }
	}`)
	if len(rows) != 3 { // 2 genres + 1 award
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

// TestSortRowsByRanksMatchTermOrder: the canonical sort, which orders rows
// on the store dictionary's term-order positions, puts rows exactly where a
// stable sort comparing decoded terms does. The cases cover a small batch
// and one of several morsels, a leading key column holding evaluator ids
// (terms the store lacks, sorted by comparator), and a dictionary that
// grew between two sorts.
func TestSortRowsByRanksMatchTermOrder(t *testing.T) {
	sd := store.NewDictionary()
	for i := 0; i < 40; i++ {
		sd.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/n%d", (i*7)%40)))
	}
	sd.Encode(rdf.NewInteger(4))
	terms := []rdf.Term{{}, rdf.NewLiteral("b"), rdf.NewLiteral("a"), rdf.NewInteger(10), rdf.NewInteger(9),
		rdf.NewDecimal(9.5), rdf.NewLangLiteral("a", "en"), rdf.NewBlank("b1"), rdf.NewIRI("http://ex/zz"),
		rdf.NewInteger(4), rdf.NewIRI("http://ex/n3"), rdf.NewLiteral("5")}
	check := func(name string, n int, keys []string) {
		t.Helper()
		ev := &evaluator{dict: newEvalDict(sd)}
		rows := newIDRows([]string{"x", "y", "z"})
		for i := 0; i < n; i++ {
			rows.appendRow([]store.ID{
				ev.dict.encode(terms[(i*5)%len(terms)]),
				ev.dict.encode(rdf.NewIRI(fmt.Sprintf("http://ex/n%d", (i*13)%40))),
				ev.dict.encode(rdf.NewInteger(int64(i % 17))),
			})
		}
		want := slices.Concat(rows.segs...)
		cut := 0
		splitRows(rows, func() int { cut++; return cut % 5 })
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			for _, v := range keys {
				c, ok := rows.col(v)
				if !ok {
					continue
				}
				ta, tb := ev.dict.decode(want[perm[a]*3+c]), ev.dict.decode(want[perm[b]*3+c])
				if d := rdf.Compare(ta, tb); d != 0 {
					return d < 0
				}
			}
			return false
		})
		if err := ev.sortRowsBy(rows, keys); err != nil {
			t.Fatal(err)
		}
		for i, p := range perm {
			if !reflect.DeepEqual(rows.row(i), want[p*3:p*3+3]) {
				t.Fatalf("%s, %d rows: row %d is %v, the term-comparing sort puts %v there", name, n, i, rows.row(i), want[p*3:p*3+3])
			}
		}
	}
	for _, n := range []int{50, 3 * morselRows} {
		check("store ids lead", n, []string{"y", "x", "y", "absent"})
		check("evaluator ids lead", n, []string{"x", "z", "y"})
	}
	// Interned now, the integers of ?z and some of ?x's terms come from the
	// grown store dictionary, ranked among the terms already ordered.
	for i := 0; i < 17; i += 2 {
		sd.Encode(rdf.NewInteger(int64(i)))
	}
	sd.Encode(rdf.NewLiteral("a"))
	sd.Encode(rdf.NewInteger(10))
	for _, n := range []int{50, 3 * morselRows} {
		check("grown dictionary", n, []string{"z", "x", "y"})
		check("grown dictionary, evaluator ids lead", n, []string{"x", "y"})
	}
}

// TestSortRowsByAllocsPerSort pins the canonical sort's allocations: a
// fixed number of objects whatever the row count (the key slice and the
// permuted data are each one), not one per distinct term.
func TestSortRowsByAllocsPerSort(t *testing.T) {
	allocs := func(n int) float64 {
		sd := store.NewDictionary()
		for i := 0; i < n/10+1; i++ {
			sd.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/%d", i)))
		}
		ev := &evaluator{dict: newEvalDict(sd)}
		rows := newIDRows([]string{"a", "b"})
		for i := 0; i < n; i++ {
			rows.appendRow([]store.ID{store.ID(1 + (i*7919)%(n/10+1)), store.ID(1 + i%3)})
		}
		data := slices.Clone(rows.segs[0])
		return testing.AllocsPerRun(5, func() {
			copy(rows.segs[0], data)
			if err := ev.sortRowsBy(rows, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A collection, which a batch of 100,000 rows triggers every run or
	// two, adds an allocation of the runtime's own to the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if small, large := allocs(1000), allocs(100_000); small != large {
		t.Errorf("sortRowsBy allocates %v objects for 1,000 rows, %v for 100,000", small, large)
	}
}
