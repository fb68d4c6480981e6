package store

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
)

func TestDictionaryEncodeOverflowPanics(t *testing.T) {
	// The real limit is the full uint32 id space, which a test cannot fill;
	// lowering the cap on a constructed dictionary exercises the same guard.
	d := NewDictionary()
	d.limit = 3
	for i := 0; i < 3; i++ {
		d.Encode(iri(fmt.Sprintf("t%d", i)))
	}
	// Re-encoding an existing term must still work at the cap.
	if d.Encode(iri("t0")) != 1 {
		t.Fatal("re-encode at cap changed id")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Encode past the id space did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "dictionary overflow") {
			t.Fatalf("panic %v lacks a clear overflow message", r)
		}
	}()
	d.Encode(iri("one-too-many"))
}

func TestNewDictionaryFrom(t *testing.T) {
	terms := []rdf.Term{iri("a"), rdf.NewLiteral("x"), rdf.NewBlank("b")}
	d, err := NewDictionaryFrom(len(terms), slices.Values(terms))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for i, term := range terms {
		if id, ok := d.Lookup(term); !ok || id != ID(i+1) {
			t.Fatalf("term %d: id=%d ok=%v", i, id, ok)
		}
		if d.Decode(ID(i+1)) != term {
			t.Fatalf("decode %d mismatch", i+1)
		}
	}
	if _, err := NewDictionaryFrom(2, slices.Values([]rdf.Term{iri("a"), iri("a")})); err == nil {
		t.Fatal("duplicate term table accepted")
	}
	if _, err := NewDictionaryFrom(1, slices.Values([]rdf.Term{{}})); err == nil {
		t.Fatal("unbound term accepted")
	}
}

func TestDictionaryTermsOrder(t *testing.T) {
	d := NewDictionary()
	want := []rdf.Term{iri("z"), iri("a"), rdf.NewLiteral("m")}
	for _, term := range want {
		d.Encode(term)
	}
	for i, term := range want {
		if got := d.Decode(ID(i + 1)); got != term {
			t.Fatalf("Decode(%d) = %v, want %v (first-seen order)", i+1, got, term)
		}
	}
}

func TestBulkGraphMatchesIncrementalAdds(t *testing.T) {
	// The same triples through Add and through BulkGraph must answer every
	// access path identically.
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		triples = append(triples, rdf.Triple{
			S: iri(fmt.Sprintf("s%d", i%40)),
			P: iri(fmt.Sprintf("p%d", i%5)),
			O: rdf.NewInteger(int64(i)),
		})
	}
	inc := New()
	if err := inc.AddAll(g1, triples); err != nil {
		t.Fatal(err)
	}

	bulk := NewWithDictionary(inc.dict)
	if err := bulk.BulkGraph(g1, append([]IDTriple(nil), inc.Graph(g1).Triples()...)); err != nil {
		t.Fatal(err)
	}

	patterns := []IDTriple{
		{},
		{S: 1},
		{P: 2},
		{O: 3},
		{S: 1, P: 2},
		{P: 2, O: 3},
		{S: 1, O: 3},
		{S: 1, P: 2, O: 3},
	}
	for _, pat := range patterns {
		var a, b []IDTriple
		inc.MatchAny([]string{g1}, pat, func(tr IDTriple) bool { a = append(a, tr); return true })
		bulk.MatchAny([]string{g1}, pat, func(tr IDTriple) bool { b = append(b, tr); return true })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pattern %v: incremental %d rows, bulk %d rows", pat, len(a), len(b))
		}
		if inc.Graph(g1).Cardinality(pat) != bulk.Graph(g1).Cardinality(pat) {
			t.Fatalf("pattern %v: cardinality estimates differ", pat)
		}
	}
}

func TestBulkGraphRejectsBadIDs(t *testing.T) {
	d, err := NewDictionaryFrom(2, slices.Values([]rdf.Term{iri("a"), iri("b")}))
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDictionary(d)
	if err := s.BulkGraph(g1, []IDTriple{{S: 1, P: 2, O: 3}}); err == nil {
		t.Fatal("out-of-range object id accepted")
	}
	if err := s.BulkGraph(g1, []IDTriple{{S: 0, P: 1, O: 2}}); err == nil {
		t.Fatal("zero subject id accepted")
	}
}

func TestBulkGraphRejectsNonEmptyGraph(t *testing.T) {
	s := New()
	mustAdd(t, s, g1, rdf.Triple{S: iri("s"), P: iri("p"), O: iri("o")})
	if err := s.BulkGraph(g1, nil); err == nil {
		t.Fatal("bulk load over populated graph accepted")
	}
}

func TestLoadNTriplesParallelMatchesSerial(t *testing.T) {
	var doc bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&doc, "<http://ex/s%d> <http://ex/p%d> \"v%d\" .\n", i%500, i%7, i)
	}
	// Duplicate statements must collapse identically under both loaders.
	doc.WriteString("<http://ex/s0> <http://ex/p0> \"v0\" .\n")

	serial := New()
	nSerial, err := serial.LoadNTriples(g1, bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	par := New()
	nPar, err := par.LoadNTriplesParallel(g1, bytes.NewReader(doc.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if nSerial != nPar {
		t.Fatalf("parsed counts differ: serial %d, parallel %d", nSerial, nPar)
	}
	if serial.Graph(g1).Len() != par.Graph(g1).Len() {
		t.Fatalf("graph sizes differ: serial %d, parallel %d", serial.Graph(g1).Len(), par.Graph(g1).Len())
	}
	if !reflect.DeepEqual(serial.Graph(g1).Triples(), par.Graph(g1).Triples()) {
		t.Fatal("parallel load changed the graph content")
	}
}

func TestLoadNTriplesParallelReportsParseError(t *testing.T) {
	doc := "<http://ex/s> <http://ex/p> \"v\" .\nnot a triple\n"
	s := New()
	if _, err := s.LoadNTriplesParallel(g1, strings.NewReader(doc), 4); err == nil {
		t.Fatal("parse error swallowed")
	}
}
