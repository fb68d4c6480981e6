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
		"distinct":     func(r *idRows) (*idRows, error) { r.distinct(); return r, nil },
		"distinctRows": func(r *idRows) (*idRows, error) { return r, ev.distinctRows(r) },
		"sliceRows":    func(r *idRows) (*idRows, error) { r.sliceRows(r.n/3, r.n-r.n/4); return r, nil },
		"project":      func(r *idRows) (*idRows, error) { return r.project([]string{"c", "x", "a"}), nil },
		"concatRows":   func(r *idRows) (*idRows, error) { return concatRows([]*idRows{r, r.project([]string{"b"})}), nil },
		"ensureCol":    func(r *idRows) (*idRows, error) { r.ensureCol("x"); return r, nil },
		"sortRowsBy":   func(r *idRows) (*idRows, error) { return r, ev.sortRowsBy(r, []string{"b", "c", "a"}) },
		"permute": func(r *idRows) (*idRows, error) {
			perm := make([]int, r.n)
			for i := range perm {
				perm[i] = (i * 7) % r.n
			}
			r.permute(perm)
			return r, nil
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
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	index := measure(func() { makeJoinExec(l, r, false) })
	var out *idRows
	join := measure(func() {
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
