package snapshot

import (
	"bytes"
	"testing"

	"rdfframes/internal/datagen"
	"rdfframes/internal/store"
)

// benchmarkStore loads two of the synthetic benchmark graphs (~200k
// triples) at bench scale.
func benchmarkStore(b *testing.B) *store.Store {
	b.Helper()
	st := store.New()
	if err := st.AddAll(datagen.DBpediaURI, datagen.DBpedia(datagen.BenchDBpedia())); err != nil {
		b.Fatal(err)
	}
	if err := st.AddAll(datagen.DBLPURI, datagen.DBLP(datagen.BenchDBLP())); err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkWrite(b *testing.B) {
	st := benchmarkStore(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkReopen(b *testing.B) {
	st := benchmarkStore(b)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
