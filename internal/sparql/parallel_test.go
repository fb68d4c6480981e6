package sparql

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// bigStore builds a graph large enough to cross every parallel threshold:
// wide base scans (well past minParallelScan) and joins fanning out past
// minParallelRows.
func bigStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	var triples []rdf.Triple
	for i := 0; i < 6000; i++ {
		p := ex(fmt.Sprintf("person%d", i))
		triples = append(triples,
			rdf.Triple{S: p, P: ex("worksFor"), O: ex(fmt.Sprintf("org%d", i%17))},
			rdf.Triple{S: p, P: ex("age"), O: rdf.NewInteger(int64(20 + i%60))},
		)
		if i%3 == 0 {
			triples = append(triples, rdf.Triple{S: p, P: ex("knows"), O: ex(fmt.Sprintf("person%d", (i*7)%6000))})
		}
	}
	for i := 0; i < 17; i++ {
		triples = append(triples, rdf.Triple{S: ex(fmt.Sprintf("org%d", i)), P: ex("city"), O: ex(fmt.Sprintf("city%d", i%5))})
	}
	if err := s.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return s
}

// parallelQueries exercises every parallel operator: partitioned base
// scans, row-morsel probes, hash and nested joins, OPTIONAL, UNION,
// DISTINCT, aggregation downstream of parallel joins, ORDER BY, and
// LIMIT/OFFSET over the merged stream.
var parallelQueries = []string{
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o }`,
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o . ?o <http://ex/city> ?c }`,
	`SELECT DISTINCT ?o ?c WHERE { ?p <http://ex/worksFor> ?o . ?o <http://ex/city> ?c }`,
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o . ?p <http://ex/age> ?a . FILTER(?a > 40) }`,
	`SELECT * WHERE { ?p <http://ex/worksFor> ?o . OPTIONAL { ?p <http://ex/knows> ?q } }`,
	`SELECT * WHERE { { ?p <http://ex/age> ?a } UNION { ?p <http://ex/knows> ?q } }`,
	`SELECT ?o (COUNT(?p) AS ?n) WHERE { ?p <http://ex/worksFor> ?o } GROUP BY ?o ORDER BY DESC(?n) ?o`,
	`SELECT ?p ?q WHERE { ?p <http://ex/knows> ?q . ?q <http://ex/age> ?a . FILTER(?a >= 50) } ORDER BY ?p ?q LIMIT 100 OFFSET 37`,
	`SELECT * WHERE { ?s ?p ?o }`,
}

// TestParallelMatchesSerial is the determinism contract at the package
// level: for every query shape and worker count, the parallel engine's
// SPARQL JSON is byte-identical to the serial engine's.
func TestParallelMatchesSerial(t *testing.T) {
	st := bigStore(t)
	serial := NewEngine(st)
	serial.Parallelism = 1
	for _, workers := range []int{2, 4, 8} {
		par := NewEngine(st)
		par.Parallelism = workers
		for _, q := range parallelQueries {
			want, err := runQuery(serial, q)
			if err != nil {
				t.Fatalf("serial %s: %v", q, err)
			}
			got, err := runQuery(par, q)
			if err != nil {
				t.Fatalf("parallel(%d) %s: %v", workers, q, err)
			}
			wb, err := want.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			gb, err := got.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("parallelism %d: results differ for %s (serial %d rows, parallel %d rows)",
					workers, q, len(want.Rows), len(got.Rows))
			}
		}
	}
}

// TestParallelServingMatchesSerial runs the same contract through the
// serving path (plan + result caches), which shares evalLocked.
func TestParallelServingMatchesSerial(t *testing.T) {
	st := bigStore(t)
	serial := NewEngine(st)
	serial.Parallelism = 1
	par := NewEngine(st)
	par.Parallelism = 4
	par.EnableCache(64, 1<<20)
	q := `SELECT DISTINCT ?o ?c WHERE { ?p <http://ex/worksFor> ?o . ?o <http://ex/city> ?c } ORDER BY ?o LIMIT 10`
	want, err := runQuery(serial, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // miss then hit
		resp, err := par.Do(context.Background(), Request{Query: q, Serving: true, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		body, info := resp.Body, resp.Info
		wb, err := want.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, body) {
			t.Fatalf("serving round %d (hit=%v): body differs from serial evaluation", i, info.Hit)
		}
	}
}

// TestQueryContextCancellation checks the bugfix: a cancelled context
// stops evaluation (serial and parallel) promptly instead of letting the
// query run to completion.
func TestQueryContextCancellation(t *testing.T) {
	st := bigStore(t)
	// A cross product large enough to run for a long time if not stopped.
	q := `SELECT * WHERE { ?p <http://ex/age> ?a . ?q <http://ex/age> ?b . ?r <http://ex/worksFor> ?o }`
	for _, workers := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = workers
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := e.Do(ctx, Request{Query: q})
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("parallelism %d: cancelled query succeeded", workers)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("parallelism %d: cancelled query still ran %v", workers, elapsed)
		}
	}
}

// TestQueryContextDeadlineIsTimeout checks that a context deadline
// surfaces as the engine's ErrTimeout, like the engine's own deadline.
func TestQueryContextDeadlineIsTimeout(t *testing.T) {
	st := bigStore(t)
	e := NewEngine(st)
	e.Parallelism = 4
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	_, err := e.Do(ctx, Request{Query: `SELECT * WHERE { ?p <http://ex/age> ?a . ?q <http://ex/age> ?b }`})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestParallelTimeout checks that the engine deadline still fires with
// the pool on.
func TestParallelTimeout(t *testing.T) {
	st := bigStore(t)
	e := NewEngine(st)
	e.Parallelism = 4
	e.SetTimeout(time.Nanosecond)
	_, err := runQuery(e, `SELECT * WHERE { ?p <http://ex/age> ?a . ?q <http://ex/age> ?b }`)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestMergeParts checks the combiner keeps morsel order and lists the
// parts' segments as they are.
func TestMergeParts(t *testing.T) {
	vars := []string{"a", "b"}
	mk := func(segs ...[]store.ID) pipePart {
		p := pipePart{segs: segs}
		for _, seg := range segs {
			p.n += len(seg) / len(vars)
		}
		return p
	}
	parts := []pipePart{mk([]store.ID{1, 2}, []store.ID{3, 4}), mk(), mk([]store.ID{5, 6})}
	merged := mergePipeParts(vars, parts)
	if merged.n != 3 {
		t.Fatalf("n = %d, want 3", merged.n)
	}
	if want := []store.ID{1, 2, 3, 4, 5, 6}; !slices.Equal(slices.Concat(merged.segs...), want) {
		t.Fatalf("rows = %v, want %v", merged.segs, want)
	}
	if len(merged.segs) != 3 || &merged.segs[2][0] != &parts[2].segs[0][0] {
		t.Fatalf("segments %v: the parts' segments were copied", merged.segs)
	}
}
