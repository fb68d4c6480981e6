package rdf_test

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// FuzzNTriples feeds arbitrary documents to both N-Triples readers. The
// serial reader and ParseNTriplesParallel must agree: on the triples of a
// document they accept, and on the error (message and line) of one they
// reject. A document both accept, loaded into a store by the serial and by
// the parallel loader, must give the same graph and the same dictionary:
// identical Triples(), and for every id the same term, which Lookup finds
// under that id. The seed corpus is under testdata/fuzz/FuzzNTriples.
func FuzzNTriples(f *testing.F) {
	const g = "http://example.org/g"
	f.Fuzz(func(t *testing.T, doc []byte) {
		if len(doc) > 1<<12 {
			t.Skip("long documents only repeat short ones")
		}
		want, werr := rdf.NewNTriplesReader(bytes.NewReader(doc)).ReadAll()
		got, gerr := rdf.ParseNTriplesParallelAll(bytes.NewReader(doc), 2)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("serial error %v, parallel error %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parallel parse %v, serial %v", got, want)
		}

		serial, par := store.New(), store.New()
		ns, serr := serial.LoadNTriples(g, bytes.NewReader(doc))
		np, perr := par.LoadNTriplesParallel(g, bytes.NewReader(doc), 2)
		if serr != nil || perr != nil || ns != len(want) || np != len(want) {
			t.Fatalf("loaded %d (%v) serially and %d (%v) in parallel, parsed %d", ns, serr, np, perr, len(want))
		}
		if (serial.Graph(g) == nil) != (par.Graph(g) == nil) ||
			serial.Graph(g) != nil && !slices.Equal(serial.Graph(g).Triples(), par.Graph(g).Triples()) {
			t.Fatal("the two loaders built different graphs")
		}
		sd, pd := serial.Dict(), par.Dict()
		if sd.Len() != pd.Len() {
			t.Fatalf("dictionaries of %d and %d terms", sd.Len(), pd.Len())
		}
		for id := store.ID(1); int(id) <= sd.Len(); id++ {
			term := sd.Decode(id)
			if pd.Decode(id) != term {
				t.Fatalf("id %d decodes to %v serially, %v in parallel", id, term, pd.Decode(id))
			}
			for _, d := range []*store.Dictionary{sd, pd} {
				if got, ok := d.Lookup(term); !ok || got != id {
					t.Fatalf("Lookup(%v) = %d, %v, want %d", term, got, ok, id)
				}
			}
		}
		for _, tr := range want {
			for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
				if _, ok := sd.Lookup(term); !ok {
					t.Fatalf("parsed term %v is not in the store", term)
				}
			}
		}
	})
}

// FuzzCompare splits a byte string at its first two zero bytes into three
// terms (see fuzzTerm) and checks rdf.Compare on them: antisymmetric, 0
// only for identical terms, transitive in every arrangement. The store
// dictionary's term order must agree: the terms interned one at a time,
// the order asked for after each, rank them as Compare does. The seed
// corpus is under testdata/fuzz/FuzzCompare.
func FuzzCompare(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := bytes.SplitN(data, []byte{0}, 3)
		for len(parts) < 3 {
			parts = append(parts, nil)
		}
		terms := []rdf.Term{fuzzTerm(parts[0]), fuzzTerm(parts[1]), fuzzTerm(parts[2])}
		for _, a := range terms {
			for _, b := range terms {
				ab, ba := rdf.Compare(a, b), rdf.Compare(b, a)
				if cmp.Compare(ab, 0) != -cmp.Compare(ba, 0) || (ab == 0) != (a == b) {
					t.Fatalf("Compare(%#v, %#v) = %d, reversed %d", a, b, ab, ba)
				}
				for _, c := range terms {
					if ab < 0 && rdf.Compare(b, c) < 0 && rdf.Compare(a, c) >= 0 {
						t.Fatalf("%v < %v < %v but not %v < %v", a, b, c, a, c)
					}
				}
			}
		}
		d := store.NewDictionary()
		ids := make([]store.ID, len(terms))
		for i, term := range terms {
			if term.IsBound() {
				ids[i] = d.Encode(term)
			}
			ord := d.Order()
			for j := range i + 1 {
				for k := range i + 1 {
					if got, want := cmp.Compare(ord[ids[j]], ord[ids[k]]), cmp.Compare(rdf.Compare(terms[j], terms[k]), 0); got != want {
						t.Fatalf("order positions of %v and %v compare %d, the terms %d", terms[j], terms[k], got, want)
					}
				}
			}
		}
	})
}

// fuzzTerm builds a term from b: no bytes is unbound; otherwise b[0] picks
// the kind, and for a literal the datatype or language, and the rest of b
// is the value.
func fuzzTerm(b []byte) rdf.Term {
	if len(b) == 0 {
		return rdf.Term{}
	}
	v := string(b[1:])
	switch b[0] % 8 {
	case 0:
		return rdf.NewBlank(v)
	case 1:
		return rdf.NewIRI(v)
	case 2:
		return rdf.NewLiteral(v)
	case 3:
		return rdf.NewLangLiteral(v, []string{"en", "fr"}[b[0]>>3%2])
	}
	types := []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDString, rdf.XSDDate, rdf.XSDBoolean}
	return rdf.Term{Kind: rdf.LiteralKind, Value: v, Datatype: types[int(b[0]>>3)%len(types)]}
}
