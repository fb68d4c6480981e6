package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Micro-benchmarks for the ID-space operators on realistic intermediate
// cardinalities (10k–100k rows), isolating the tentpole hot paths from the
// HTTP/JSON transport the figure benchmarks also measure. Run with:
//
//	go test ./internal/sparql -run '^$' -bench 'BGPExtend|BGPPipeline|PushedDownEquality|HashJoin|Distinct|GroupBy|CanonicalSort' -benchmem

// chainStore holds n subjects with two fan-out-3 predicates p and q, so
// "?s p ?o . ?s q ?x" yields 9n rows.
func chainStore(n int) *store.Store {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	q := rdf.NewIRI("http://ex/q")
	for i := 0; i < n; i++ {
		sub := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for j := 0; j < 3; j++ {
			s.Add(testGraph, rdf.Triple{S: sub, P: p, O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", (i+j)%97))})
			s.Add(testGraph, rdf.Triple{S: sub, P: q, O: rdf.NewInteger(int64(i % 1000))})
		}
	}
	return s
}

func BenchmarkBGPExtend(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e := NewEngine(chainStore(n / 9))
			q := `SELECT * WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?x }`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runQuery(e, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// starStore holds n subjects with six single-valued predicates p0..p5 — the
// cs1 shape, a six-pattern star around one variable.
func starStore(n int) *store.Store {
	s := store.New()
	triples := make([]rdf.Triple, 0, 6*n)
	for i := 0; i < n; i++ {
		sub := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for k := 0; k < 6; k++ {
			triples = append(triples, rdf.Triple{S: sub, P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", k)), O: rdf.NewInteger(int64((i * (k + 1)) % 500))})
		}
	}
	if err := s.AddAll(testGraph, triples); err != nil {
		panic(err)
	}
	return s
}

// BenchmarkBGPPipeline times one fused segment per shape, through Engine.Do
// with the JSON body left unencoded (Stream), so the numbers are the
// executor's plus one compact result:
//
//   - fanout-filter is the Q9 shape: 6,000 source rows fan out to 480,000
//     probes that a pushed-down filter cuts to 60,000 survivors;
//   - star6 is the cs1 shape: six patterns around one variable over 30,000
//     subjects, kept on the binary pipeline (DisableWCOJ) because the case
//     studies' stars run there;
//   - reprobe-s is the shape the old per-step probe cache served: 48,000
//     rows re-probing 4,800 distinct subjects with an unbound predicate
//     (the store's sorted-key walk, the one access path that is not a
//     slice scan).
func BenchmarkBGPPipeline(b *testing.B) {
	shapes := []struct {
		name  string
		store func() *store.Store
		query string
		rows  int
	}{
		{"fanout-filter", func() *store.Store { return fanoutStore(b, 6000, 80) },
			`SELECT ?f ?a ?y WHERE { ?f <http://ex/type> <http://ex/Film> . ?f <http://ex/starring> ?a . ?a <http://ex/born> ?y . FILTER(?y >= 1990) }`, 60000},
		{"star6", func() *store.Store { return starStore(30000) },
			`SELECT * WHERE { ?s <http://ex/p0> ?a . ?s <http://ex/p1> ?b . ?s <http://ex/p2> ?c . ?s <http://ex/p3> ?d . ?s <http://ex/p4> ?e . ?s <http://ex/p5> ?f }`, 30000},
		{"reprobe-s", func() *store.Store { return fanoutStore(b, 600, 80) },
			`SELECT ?f ?p ?o WHERE { ?f <http://ex/starring> ?a . ?a ?p ?o }`, 48000},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			e := NewEngine(sh.store())
			e.DisableWCOJ = true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := e.Stream(context.Background(), Request{Query: sh.query})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Rows != sh.rows {
					b.Fatalf("%d rows, want %d", resp.Rows, sh.rows)
				}
			}
		})
	}
}

// BenchmarkPushedDownEquality is the cost of Q9's filters: equalitySegment
// over 400,000 actor pairs (1,000 films of 20), every pair tested for = and
// !=, nothing output. ns/row is per pair.
func BenchmarkPushedDownEquality(b *testing.B) {
	st := fanoutStore(b, 1000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += runEqualitySegment(b, st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// benchBatches builds two batches sharing the x column, 1:1 joinable.
func benchBatches(n int) (*idRows, *idRows) {
	d := newEvalDict(store.NewDictionary())
	l := newIDRows([]string{"x", "a"})
	r := newIDRows([]string{"x", "b"})
	buf := make([]store.ID, 2)
	for i := 0; i < n; i++ {
		x := d.encode(rdf.NewIRI(fmt.Sprintf("http://ex/x%d", i)))
		buf[0], buf[1] = x, d.encode(rdf.NewInteger(int64(i)))
		l.appendRow(buf)
		buf[1] = d.encode(rdf.NewLiteral(fmt.Sprintf("v%d", i)))
		r.appendRow(buf)
	}
	return l, r
}

func BenchmarkHashJoin(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		l, r := benchBatches(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := joinRows(l, r)
				if out.n != n {
					b.Fatalf("rows = %d", out.n)
				}
			}
		})
	}
}

func BenchmarkDistinct(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		d := newEvalDict(store.NewDictionary())
		src := newIDRows([]string{"x", "y"})
		buf := make([]store.ID, 2)
		for i := 0; i < n; i++ {
			// Every pair appears exactly twice: n/2 distinct rows.
			j := i % (n / 2)
			buf[0] = d.encode(rdf.NewInteger(int64(j)))
			buf[1] = d.encode(rdf.NewIRI(fmt.Sprintf("http://ex/c%d", j%7)))
			src.appendRow(buf)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			data := make([]store.ID, len(src.segs[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src.segs[0])
				cp := &idRows{vars: src.vars, cols: src.cols, segs: [][]store.ID{data}, n: src.n}
				cp.distinct([]int{0, 1})
				if cp.n >= n {
					b.Fatal("nothing deduplicated")
				}
			}
		})
	}
}

// BenchmarkCanonicalSort is the canonical sort of a cs1-shaped result:
// 43,000 rows of nine columns led by about 10,000 distinct actors, each
// with a few movies and the movies' and actors' attributes. The store
// dictionary's term order is built before the timer starts, as the first
// query on a store builds it; ns/row is per row sorted.
func BenchmarkCanonicalSort(b *testing.B) {
	const rows = 43_000
	sd := store.NewDictionary()
	iri := func(kind string, i int) store.ID {
		return sd.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i)))
	}
	lit := func(kind string, i int) store.ID { return sd.Encode(rdf.NewLiteral(fmt.Sprintf("%s %d", kind, i))) }
	vars := []string{"actor", "movie", "actor_country", "actor_name", "movie_name", "subject", "movie_country", "movie_count", "genre"}
	src := newIDRows(vars)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		a, m := rng.Intn(10_000), rng.Intn(20_000)
		src.appendRow([]store.ID{
			iri("actor", a), iri("movie", m), iri("country", a%150), lit("actor", a), lit("movie", m),
			iri("subject", m%500), iri("country", m%150), sd.Encode(rdf.NewInteger(int64(1 + a%60))), iri("genre", m%25),
		})
	}
	ev := &evaluator{dict: newEvalDict(sd)}
	sd.Order()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := src.alias() // the sort gathers into a new segment and leaves src as it is
		if err := ev.sortRowsBy(cp, vars); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkGroupBy(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e := NewEngine(chainStore(n / 9))
			q := `SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?x } GROUP BY ?o`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runQuery(e, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkQueryDistinctResult is the worst case for resolving a result's
// ids into terms: a single scan whose every cell is its own term, so the
// time is nearly all spent after evaluation — building the Results
// ("terms", what Direct.Select pays) or the JSON body ("json", what the
// server pays).
func BenchmarkQueryDistinctResult(b *testing.B) {
	const rows = 200_000
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < rows; i++ {
		s.Add(testGraph, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
			P: p,
			O: rdf.NewLiteral(fmt.Sprintf("value %d", i)),
		})
	}
	e := NewEngine(s)
	for _, json := range []bool{false, true} {
		name := map[bool]string{false: "terms", true: "json"}[json]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := e.Do(context.Background(), Request{
					Query: `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`,
					JSON:  json,
				})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Rows != rows {
					b.Fatalf("%d rows", resp.Rows)
				}
			}
		})
	}
}
