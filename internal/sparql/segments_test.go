package sparql

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// segStore holds 12,000 people, each working for one of 17 organisations
// and aged 20 to 79; a third know someone, and only the first five
// organisations have a city. A scan of ?p worksFor ?o runs as three
// morsels and comes out ordered by organisation, so a join of it with the
// cities emits nothing for every left morsel past the fifth organisation.
func segStore(t testing.TB) *store.Store {
	t.Helper()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	var triples []rdf.Triple
	for i := 0; i < 12_000; i++ {
		p := ex(fmt.Sprintf("person%d", i))
		triples = append(triples,
			rdf.Triple{S: p, P: ex("worksFor"), O: ex(fmt.Sprintf("org%d", i%17))},
			rdf.Triple{S: p, P: ex("age"), O: rdf.NewInteger(int64(20 + i%60))},
		)
		if i%3 == 0 {
			triples = append(triples, rdf.Triple{S: p, P: ex("knows"), O: ex(fmt.Sprintf("person%d", (i*7)%12_000))})
		}
	}
	for i := 0; i < 5; i++ {
		triples = append(triples, rdf.Triple{S: ex(fmt.Sprintf("org%d", i)), P: ex("city"), O: ex(fmt.Sprintf("city%d", i%3))})
	}
	st := store.New()
	if err := st.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return st
}

// segmentQueries reach every reader of a segmented batch: the join's probe
// side (OPTIONAL, a subquery join with empty morsels), UNION, a residual
// FILTER, DISTINCT, ORDER BY, LIMIT/OFFSET, BIND, GROUP BY, and a subquery
// the subplan memo shares, which a FILTER then changes.
var segmentQueries = []string{
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o OPTIONAL { ?o <http://ex/city> ?c } }`,
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o { SELECT ?o ?c WHERE { ?o <http://ex/city> ?c } } }`,
	`SELECT * WHERE { { ?p <http://ex/worksFor> ?o } UNION { ?p <http://ex/knows> ?q } }`,
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o OPTIONAL { ?o <http://ex/city> ?c } FILTER(!bound(?c) || ?c != <http://ex/city1>) }`,
	`SELECT * WHERE { { SELECT DISTINCT ?o ?a WHERE { ?p <http://ex/worksFor> ?o . ?p <http://ex/age> ?a } } }`,
	`SELECT DISTINCT ?o ?a WHERE { ?p <http://ex/worksFor> ?o . ?p <http://ex/age> ?a }`,
	`SELECT ?p ?a WHERE { ?p <http://ex/age> ?a } ORDER BY DESC(?a) ?p LIMIT 50 OFFSET 3000`,
	`SELECT * WHERE { { SELECT ?p ?o WHERE { ?p <http://ex/worksFor> ?o } LIMIT 5000 OFFSET 1500 } ?p <http://ex/age> ?a }`,
	`SELECT * WHERE { ?p <http://ex/age> ?a BIND(?a * 2 AS ?d) }`,
	`SELECT ?o (COUNT(?p) AS ?n) (SUM(?a) AS ?s) WHERE { ?p <http://ex/worksFor> ?o . ?p <http://ex/age> ?a } GROUP BY ?o`,
	`SELECT * WHERE {
		{ { SELECT ?p ?o WHERE { ?p <http://ex/worksFor> ?o } } OPTIONAL { ?p <http://ex/knows> ?q } }
		UNION
		{ { SELECT ?p ?o WHERE { ?p <http://ex/worksFor> ?o } } FILTER(?o != <http://ex/org3>) }
	}`,
}

// TestSegmentBoundariesByteIdentical: operators hand over their output as
// the segments their morsels wrote, and every reader must see the rows the
// serial engine sees, in its order, wherever the segment and morsel
// boundaries fall — bodies at 1 and 4 workers are the same bytes.
func TestSegmentBoundariesByteIdentical(t *testing.T) {
	st := segStore(t)
	serial, par := NewEngine(st), NewEngine(st)
	serial.Parallelism, par.Parallelism = 1, 4
	for _, q := range segmentQueries {
		want, err := serial.Do(context.Background(), Request{Query: q, JSON: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := par.Do(context.Background(), Request{Query: q, JSON: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want.Rows == 0 || !bytes.Equal(want.Body, got.Body) {
			t.Errorf("4 workers: body differs from serial (or is empty: %d rows) for %s", want.Rows, q)
		}
	}
}

// TestSegmentedBatchesReadAsFlat: each operator that reads a batch in
// order, gathers from it or changes it in place gives the same rows for a
// batch cut into segments, empty ones included, as for the same rows in
// one segment — whether the cut falls inside a morsel or on its edge.
func TestSegmentedBatchesReadAsFlat(t *testing.T) {
	dict := store.NewDictionary()
	for i := 0; i < 4; i++ {
		dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/%d", 3-i)))
	}
	ev := &evaluator{dict: newEvalDict(dict), workers: 4}
	vars := []string{"a", "b", "c"}
	ops := map[string]func(r *idRows) (*idRows, error){
		"retain": func(r *idRows) (*idRows, error) {
			return r, r.retain(func(row []store.ID) (bool, error) { return row[0] != 2, nil })
		},
		"distinct":     func(r *idRows) (*idRows, error) { r.distinct([]int{2, 0}); return r, nil },
		"distinctRows": func(r *idRows) (*idRows, error) { return r, ev.distinctRows(r, []int{0, 1, 2}) },
		"sliceRows":    func(r *idRows) (*idRows, error) { r.sliceRows(r.n/3, r.n-r.n/4); return r, nil },
		"project":      func(r *idRows) (*idRows, error) { return r.project([]string{"c", "x", "a"}), nil },
		"concatRows":   func(r *idRows) (*idRows, error) { return concatRows([]*idRows{r, r.project([]string{"b"})}), nil },
		"ensureCol":    func(r *idRows) (*idRows, error) { r.ensureCol("x"); return r, nil },
		"sortRowsBy":   func(r *idRows) (*idRows, error) { return r, ev.sortRowsBy(r, []string{"b", "c", "a"}) },
		"orderBy": func(r *idRows) (*idRows, error) {
			return r, ev.orderBy(r, []OrderKey{{Expr: ExVar{Name: "c"}, Desc: true}, {Expr: ExVar{Name: "a"}}})
		},
	}
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 2, 7, 300, 3*morselRows + 5} {
		cells := make([]store.ID, n*len(vars))
		for i := range cells {
			cells[i] = store.ID(1 + rng.Intn(4))
		}
		batch := func(split bool) *idRows {
			r := newIDRows(slices.Clone(vars))
			r.setRows(slices.Clone(cells))
			r.n = n
			if split {
				splitRows(r, func() int { return rng.Intn(5) * rng.Intn(n/10+2) })
			}
			return r
		}
		for name, op := range ops {
			want, err := op(batch(false))
			if err != nil {
				t.Fatal(err)
			}
			got, err := op(batch(true))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.vars, want.vars) || !slices.EqualFunc(listRows(got), listRows(want), slices.Equal) {
				t.Errorf("%s over %d rows: the segmented batch gives %v, the flat one %v", name, n, listRows(got), listRows(want))
			}
		}
	}
}

// TestParallelJoinAllocatesItsParts: a join over many morsels allocates
// its index and the chunks its writers fill, and nothing in proportion to
// its output beyond them. A writer's chunks double from pipeChunkMin rows
// up to morselScan and then stay there, so they hold its rows plus at
// most 2*morselScan rows of slack; a copy of the output into one batch
// would add the whole output again.
func TestParallelJoinAllocatesItsParts(t *testing.T) {
	const rows, orgs, workers = 200_000, 17, 4
	l, r := newIDRows([]string{"p", "o"}), newIDRows([]string{"o", "c"})
	for i := 0; i < rows; i++ {
		l.appendRow([]store.ID{store.ID(100 + i), store.ID(1 + i%orgs)})
	}
	for o := 1; o <= orgs; o++ {
		r.appendRow([]store.ID{store.ID(o), store.ID(50 + o)})
	}
	cut := 0
	splitRows(l, func() int { cut++; return cut * 37 % 1500 }) // the left side arrives segmented too
	ev := &evaluator{workers: workers}
	index := allocated(func() { makeJoinExec(l, r, false) })
	var out *idRows
	join := allocated(func() {
		var err error
		if out, err = ev.join(l, r, false); err != nil {
			t.Fatal(err)
		}
	})
	if out.n != rows || len(out.segs) < rows/morselScan {
		t.Fatalf("%d rows in %d segments, want %d rows in at least %d", out.n, len(out.segs), rows, rows/morselScan)
	}
	cell := uint64(4 * out.width())
	parts := cell * uint64(rows+workers*2*morselScan)
	if join > index+parts+16<<10 {
		t.Errorf("the join allocated %d B: its index %d B, and its parts at most %d B (%d B of output)", join, index, parts, cell*rows)
	}
}

// TestOrderedBatchesReadAsGathered: a batch read through an order — a
// shuffled subset of the rows of its segments, empty segments and rows
// outside the order included — gives every reader and mutator exactly what
// the same rows gathered into one segment give, in the same order.
func TestOrderedBatchesReadAsGathered(t *testing.T) {
	dict := store.NewDictionary()
	for i := 0; i < 6; i++ {
		dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/%d", 5-i)))
	}
	ev := &evaluator{dict: newEvalDict(dict), cache: &regexCache{}, workers: 4}
	vars := []string{"a", "b", "c"}
	other := newIDRows([]string{"c", "d"}) // a join partner: ?c 0 to 4, some twice, one unbound
	for i, c := range []store.ID{1, 2, 2, 3, 0, 4, 5, 1} {
		other.appendRow([]store.ID{c, store.ID(1 + i%6)})
	}
	agg, err := Parse(`SELECT ?a (COUNT(?b) AS ?n) (SAMPLE(?c) AS ?s) (COUNT(DISTINCT ?c) AS ?k) WHERE { } GROUP BY ?a`)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]func(r *idRows) (*idRows, error){
		"cursor": func(r *idRows) (*idRows, error) { return r, nil },
		"row": func(r *idRows) (*idRows, error) {
			out := newIDRows(slices.Clone(r.vars))
			for i := 0; i < r.n; i++ {
				out.appendRow([]store.ID{r.at(i, 0), r.row(i)[1], r.at(i, 2)})
			}
			return out, nil
		},
		"retain": func(r *idRows) (*idRows, error) {
			return r, r.retain(func(row []store.ID) (bool, error) { return row[1] != 2, nil })
		},
		"distinct":     func(r *idRows) (*idRows, error) { r.distinct([]int{2, 0}); return r, nil },
		"distinctRows": func(r *idRows) (*idRows, error) { return r, ev.distinctRows(r, []int{0, 1, 2}) },
		"sliceRows":    func(r *idRows) (*idRows, error) { r.sliceRows(r.n/3, r.n-r.n/4); return r, nil },
		"project":      func(r *idRows) (*idRows, error) { return r.project([]string{"c", "x", "a"}), nil },
		"alias":        func(r *idRows) (*idRows, error) { return r.alias(), nil },
		"flat": func(r *idRows) (*idRows, error) {
			cells := r.flat()
			out := newIDRows(r.vars)
			out.setRows(cells)
			out.n = len(cells) / r.width()
			return out, nil
		},
		"own": func(r *idRows) (*idRows, error) {
			memo := r.alias() // the subplan memo's header over the same rows
			r.shared = true
			before := listRows(memo)
			err := r.retain(func(row []store.ID) (bool, error) { return row[0] != 3, nil })
			if !slices.EqualFunc(listRows(memo), before, slices.Equal) {
				t.Error("a filter over a shared batch changed the rows its other header reads")
			}
			return r, err
		},
		"concatRows": func(r *idRows) (*idRows, error) { return concatRows([]*idRows{r, r.alias()}), nil },
		"concatRows of two layouts": func(r *idRows) (*idRows, error) {
			return concatRows([]*idRows{r, r.project([]string{"b", "c", "a"}), r}), nil
		},
		"join left":  func(r *idRows) (*idRows, error) { return ev.join(r, other, true) },
		"join right": func(r *idRows) (*idRows, error) { return ev.join(other, r, false) },
		"aggregate":  func(r *idRows) (*idRows, error) { return ev.aggregate(agg, r) },
		"ensureCol":  func(r *idRows) (*idRows, error) { r.set(r.n/2, r.ensureCol("x"), 6); return r, nil },
		"sortRowsBy": func(r *idRows) (*idRows, error) { return r, ev.sortRowsBy(r, []string{"b", "c", "a"}) },
		"orderBy": func(r *idRows) (*idRows, error) {
			return r, ev.orderBy(r, []OrderKey{{Expr: ExVar{Name: "c"}, Desc: true}, {Expr: ExVar{Name: "a"}}})
		},
		"compact": func(r *idRows) (*idRows, error) {
			proj := []string{"c", "x", "a"}
			c, err := ev.compact(r, proj, r.colsOf(proj))
			out := newIDRows(proj)
			for _, t := range c.cells {
				out.appendRow([]store.ID{ev.dict.encode(c.terms[t])})
			}
			out.n = c.n
			return out, err
		},
	}
	rng := rand.New(rand.NewSource(37))
	for _, tc := range []struct {
		n     int
		split bool // into segments; else one segment under the order
	}{{1, false}, {2, false}, {7, false}, {7, true}, {300, true}, {3*morselRows + 5, true}} {
		n := tc.n
		cells := make([]store.ID, (n+n/3)*len(vars)) // a third more rows than the order lists
		for i := range cells {
			cells[i] = store.ID(rng.Intn(5))
		}
		seed := rng.Int63()
		ordered := func() *idRows {
			rng := rand.New(rand.NewSource(seed))
			r := newIDRows(slices.Clone(vars))
			r.setRows(slices.Clone(cells))
			r.n = len(cells) / len(vars)
			if tc.split {
				splitRows(r, func() int { return rng.Intn(5) * rng.Intn(n/10+2) })
			}
			r.number()
			rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
			r.order, r.n = r.order[:n], n
			return r
		}
		gathered := func() *idRows {
			r := ordered()
			r.flat()
			return r
		}
		if r := gathered(); r.order != nil || len(r.segs) != 1 {
			t.Fatalf("flat left %d order entries over %d segments", len(r.order), len(r.segs))
		}
		for name, op := range ops {
			want, err := op(gathered())
			if err != nil {
				t.Fatal(err)
			}
			got, err := op(ordered())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.vars, want.vars) || !slices.EqualFunc(listRows(got), listRows(want), slices.Equal) {
				t.Errorf("%s over %d rows (split %v): the ordered batch gives %v, the gathered one %v", name, n, tc.split, listRows(got), listRows(want))
			}
		}
	}
}

// batchOp hands its group a batch as an operator would have made it.
type batchOp struct{ rows *idRows }

func (b batchOp) run(*evaluator, *idRows) (*idRows, error) { return b.rows, nil }

// allocated returns the bytes f allocates, the collector off.
func allocated(f func()) uint64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSortedSelectAllocatesNoRowCopy: a top-level SELECT sorts its
// solutions into canonical order and projects three of their four columns.
// It allocates the order (8 B a row), the result's cells (4 B a cell) and
// its term table, and nothing in proportion to the rows beyond them: the
// cells are written from the segments the operators left, through the
// order, where gathering the sorted rows and then projecting them copied
// them twice.
func TestSortedSelectAllocatesNoRowCopy(t *testing.T) {
	const n, terms = 60_000, 64
	dict := store.NewDictionary()
	for i := 0; i < terms; i++ {
		dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/%d", (i*37)%terms)))
	}
	q, err := Parse(`SELECT ?d ?a ?c WHERE { }`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	rows := newIDRows([]string{"a", "b", "c", "d"})
	for i := 0; i < n; i++ {
		rows.appendRow([]store.ID{store.ID(1 + rng.Intn(terms)), store.ID(1 + i%terms), store.ID(1 + rng.Intn(4)), store.ID(1 + rng.Intn(terms))})
	}
	splitRows(rows, func() int { return 1 + rng.Intn(2*morselRows) })
	ev := &evaluator{dict: newEvalDict(dict), cache: &regexCache{}}
	root := &selectOp{q: q, where: &groupOp{ops: []operator{batchOp{rows}}}, canon: true}
	var res *compactResult
	got := allocated(func() {
		if res, err = ev.evalQuery(root, q.Limit, q.Offset); err != nil {
			t.Fatal(err)
		}
	})
	if res.n != n || len(res.cells) != 3*n || len(res.terms) != terms+1 {
		t.Fatalf("%d rows, %d cells and %d terms, want %d, %d and %d", res.n, len(res.cells), len(res.terms), n, 3*n, terms+1)
	}
	order, cells := uint64(8*n), uint64(4*len(res.cells))
	if got > order+cells+64<<10 {
		t.Errorf("the sorted SELECT allocated %d B: its order is %d B and its cells %d B; a copy of the rows would be %d B", got, order, cells, 4*4*n)
	}
}

// TestSharedFilterCopiesNoRows: a FILTER over a batch the subplan memo
// shares — the memo-shared subquery of segmentQueries, and a wider one —
// lists the rows it keeps in an order over the memo's segments: 8 B a row,
// no row copied, and the memo's header reads what it read before.
func TestSharedFilterCopiesNoRows(t *testing.T) {
	eng := NewEngine(segStore(t))
	eng.Parallelism = 4
	cond, err := Parse(`SELECT * WHERE { FILTER(?o != <http://ex/org3>) }`)
	if err != nil {
		t.Fatal(err)
	}
	filter := &filterOp{cond: cond.Where.Elems[0].(FilterElem).Cond}
	for _, sub := range []string{
		`SELECT ?p ?o WHERE { ?p <http://ex/worksFor> ?o }`,
		`SELECT ?p ?o ?a WHERE { ?p <http://ex/worksFor> ?o . ?p <http://ex/age> ?a }`,
	} {
		q, err := Parse(sub)
		if err != nil {
			t.Fatal(err)
		}
		ev := eng.newEvaluator(context.Background(), false)
		rows, err := eng.buildPlan(q, false, true).root.where.rows(ev)
		if err != nil {
			t.Fatal(err)
		}
		memo := rows.alias()
		rows.shared = true
		before := listRows(memo)
		got := allocated(func() {
			if err := ev.applyFilter(rows, filter); err != nil {
				t.Fatal(err)
			}
		})
		o, _ := rows.col("o")
		org3, _ := eng.Store.Dict().Lookup(rdf.NewIRI("http://ex/org3"))
		kept := slices.DeleteFunc(slices.Clone(before), func(row []store.ID) bool { return row[o] == org3 })
		if !slices.EqualFunc(listRows(rows), kept, slices.Equal) || !slices.EqualFunc(listRows(memo), before, slices.Equal) {
			t.Fatalf("%s: the filter kept %d of %d rows, want %d, or changed the memo's", sub, rows.n, len(before), len(kept))
		}
		if &rows.segs[0][0] != &memo.segs[0][0] {
			t.Errorf("%s: the kept rows are no longer read from the memo's segments", sub)
		}
		if bound := uint64(8*len(before)) + 8<<10; got > bound {
			t.Errorf("%s: the filter over %d rows of %d columns allocated %d B, want at most %d", sub, len(before), rows.width(), got, bound)
		}
	}
}
