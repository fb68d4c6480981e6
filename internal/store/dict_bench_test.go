package store_test

import (
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
