package sparql

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// mixedObjects is a column of the kind a scraped graph has: integers and
// decimals next to plain literals with numeric lexical forms, an
// ill-typed integer, NaN, a language-tagged literal, an IRI and a blank
// node. Under a comparator that is not a total order the sorted column
// depends on the order the rows arrived in.
func mixedObjects() []rdf.Term {
	return []rdf.Term{
		rdf.NewInteger(10), rdf.NewInteger(9), rdf.NewLiteral("5"), rdf.NewInteger(-1),
		rdf.NewDecimal(9.5), rdf.NewLiteral("10"), rdf.NewLiteral("abc"),
		rdf.NewTypedLiteral("5x", rdf.XSDInteger), rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		rdf.NewLangLiteral("5", "en"), rdf.NewTypedLiteral("1e1", rdf.XSDDouble),
		rdf.NewIRI("http://ex/o"), rdf.NewBlank("o"), rdf.NewInteger(5), rdf.NewLiteral("9"),
	}
}

// TestMixedColumnOrderIndependentOfInsertion: the same triples inserted in
// two orders, which gives their terms different ids, give byte-identical
// canonical and ORDER BY results and the same MIN and MAX over a column
// that mixes numeric and non-numeric literals.
func TestMixedColumnOrderIndependentOfInsertion(t *testing.T) {
	objs := mixedObjects()
	var triples []rdf.Triple
	for i := range 3 * len(objs) {
		triples = append(triples, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i%7)),
			P: rdf.NewIRI("http://ex/v"),
			O: objs[(i*4)%len(objs)],
		})
	}
	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://ex/v> ?o }`,
		`SELECT ?o ?s WHERE { ?s <http://ex/v> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/v> ?o } ORDER BY ?o`,
		`SELECT ?s ?o WHERE { ?s <http://ex/v> ?o } ORDER BY DESC(?o)`,
		`SELECT (MIN(?o) AS ?min) (MAX(?o) AS ?max) WHERE { ?s <http://ex/v> ?o }`,
		`SELECT ?s (MIN(?o) AS ?min) (MAX(?o) AS ?max) WHERE { ?s <http://ex/v> ?o } GROUP BY ?s`,
	}
	bodies := func(ts []rdf.Triple) []string {
		st := store.New()
		for _, tr := range ts {
			if err := st.Add(testGraph, tr); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine(st)
		var out []string
		for _, q := range queries {
			resp, err := e.Do(context.Background(), Request{Query: q})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var buf bytes.Buffer
			if err := resp.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.String())
		}
		return out
	}
	want := bodies(triples)
	slices.Reverse(triples)
	got := bodies(triples)
	for i, q := range queries {
		if got[i] != want[i] {
			t.Errorf("%s\ninserted forwards:  %s\ninserted backwards: %s", q, want[i], got[i])
		}
	}
}

// TestCanonicalSortRacesWriter: queries sort their results while a writer
// applies batches that intern new terms, so every query may find the
// dictionary grown since the last one built its term order. Each result
// must be in canonical order, and -race must see no unsynchronised access
// to the order.
func TestCanonicalSortRacesWriter(t *testing.T) {
	st := store.New()
	objs := mixedObjects()
	for i, o := range objs {
		if err := st.Add(testGraph, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i%5)), P: rdf.NewIRI("http://ex/v"), O: o}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(st)
	const batches, readers = 30, 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := range batches {
			var ops []store.UpdateOp
			for i := range 8 {
				o := rdf.NewInteger(int64(b*8 + i))
				if i%2 == 1 {
					o = rdf.NewLiteral(fmt.Sprintf("new %d", b*8+i))
				}
				ops = append(ops, store.UpdateOp{Insert: true, Graph: testGraph,
					Triple: rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: rdf.NewIRI("http://ex/v"), O: o}})
			}
			if _, err := st.ApplyBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := e.Do(context.Background(), Request{Query: `SELECT ?o ?s WHERE { ?s <http://ex/v> ?o }`})
				if err != nil {
					t.Error(err)
					return
				}
				_, terms, cells := resp.Table()
				for i := 2; i < len(cells); i += 2 {
					prev, cur := cells[i-2:i], cells[i:i+2]
					c := rdf.Compare(terms[prev[0]], terms[cur[0]])
					if c > 0 || c == 0 && rdf.Compare(terms[prev[1]], terms[cur[1]]) > 0 {
						t.Errorf("row %d (%v %v) sorts after row %d (%v %v)", i/2-1, terms[prev[0]], terms[prev[1]], i/2, terms[cur[0]], terms[cur[1]])
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}
