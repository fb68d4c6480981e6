package store_test

import (
	"fmt"
	"slices"
	"testing"

	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// benchTerms returns the distinct terms of the three benchmark graphs
// (221,987 triples, 68,512 terms) in id order.
func benchTerms(b *testing.B) []rdf.Term {
	b.Helper()
	st := store.New()
	for _, err := range []error{
		st.AddAll(datagen.DBpediaURI, datagen.DBpedia(datagen.BenchDBpedia())),
		st.AddAll(datagen.DBLPURI, datagen.DBLP(datagen.BenchDBLP())),
		st.AddAll(datagen.YAGOURI, datagen.YAGO(datagen.BenchYAGO())),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	d := st.Dict()
	terms := make([]rdf.Term, d.Len())
	for i := range terms {
		terms[i] = d.Decode(store.ID(i + 1))
	}
	return terms
}

// BenchmarkDictionary measures the dictionary at benchmark scale: one op of
// Decode, Lookup and Encode is one term, cycling through all of them; Build
// rebuilds the dictionary from its term table as a snapshot reopen does, and
// Intern encodes every term into an empty dictionary.
func BenchmarkDictionary(b *testing.B) {
	terms := benchTerms(b)
	d, err := store.NewDictionaryFrom(len(terms), slices.Values(terms))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		var sink rdf.Term
		for i := 0; i < b.N; i++ {
			sink = d.Decode(store.ID(i%len(terms) + 1))
		}
		_ = sink
	})
	b.Run("Lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := d.Lookup(terms[i%len(terms)]); !ok {
				b.Fatal("term missing")
			}
		}
	})
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Encode(terms[i%len(terms)])
		}
	})
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.NewDictionaryFrom(len(terms), slices.Values(terms)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Intern", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := store.NewDictionary()
			for _, t := range terms {
				fresh.Encode(t)
			}
		}
	})
}

// BenchmarkDictionaryOrder measures the term order at benchmark scale:
// Build orders all 68,512 terms, as the first sort on a store does; Grow
// extends their order by one refresh batch's 64 new terms (32 IRIs, 32
// plain literals), as the first sort after such a write does.
func BenchmarkDictionaryOrder(b *testing.B) {
	terms := benchTerms(b)
	d, err := store.NewDictionaryFrom(len(terms), slices.Values(terms))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.SetOrder(nil)
			d.Order()
		}
	})
	built := d.Order()
	for j := 0; j < 64; j++ {
		t := rdf.NewLiteral(fmt.Sprintf("label %d", j))
		if j%2 == 0 {
			t = rdf.NewIRI(fmt.Sprintf("http://bench.rdfframes/refresh/tag%d", j))
		}
		d.Encode(t)
	}
	b.Run("Grow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.SetOrder(built)
			d.Order()
		}
	})
}
