package rdf_test

import (
	"bytes"
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
