package store

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfframes/internal/rdf"
)

// collectParts concatenates the segment streams in order.
func collectParts(parts []ScanPart) []IDTriple {
	var out []IDTriple
	for _, part := range parts {
		part(func(t IDTriple) bool {
			out = append(out, t)
			return true
		})
	}
	return out
}

// collectMatch drains MatchAny.
func collectMatch(s *Store, graphs []string, pat IDTriple) []IDTriple {
	var out []IDTriple
	s.MatchAny(graphs, pat, func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// partitionedStore builds a two-graph store with skewed fan-outs so every
// access path has both dense and sparse entries. Most of each graph is
// settled in the base arrays; a slice of it is tombstoned and a last batch
// of inserts is still pending, so segments must cut through all three.
func partitionedStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 2; g++ {
		graph := fmt.Sprintf("http://g/%d", g)
		for i := 0; i < 900; i++ {
			tr := rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://s/%d", rng.Intn(40))),
				P: rdf.NewIRI(fmt.Sprintf("http://p/%d", rng.Intn(7))),
				O: rdf.NewIRI(fmt.Sprintf("http://o/%d", rng.Intn(60))),
			}
			if err := s.Add(graph, tr); err != nil {
				t.Fatal(err)
			}
			if i == 800 {
				s.CompactGraph(graph)
				var dels []UpdateOp
				for n, t := range s.Graph(graph).Triples() {
					if n%9 == 0 {
						d := s.Dict()
						dels = append(dels, UpdateOp{Graph: graph, Triple: rdf.Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)}})
					}
				}
				if _, err := s.ApplyBatch(dels); err != nil {
					t.Fatal(err)
				}
			}
		}
		if lay := s.Graph(graph).Layout(); lay.Tombstones == 0 || lay.DeltaTriples == 0 {
			t.Fatalf("test premise broken: layout %+v has no tombstones or no pending inserts", lay)
		}
	}
	return s
}

// TestMatchPartsEqualsMatchAny is the contract test: for every pattern
// shape, graph scope, and a spread of morsel sizes, concatenating the
// segments yields exactly the MatchAny stream.
func TestMatchPartsEqualsMatchAny(t *testing.T) {
	s := partitionedStore(t)
	dict := s.Dict()
	id := func(kind string, n int) ID {
		v, ok := dict.Lookup(rdf.NewIRI(fmt.Sprintf("http://%s/%d", kind, n)))
		if !ok {
			t.Fatalf("term %s/%d not interned", kind, n)
		}
		return v
	}
	sub, pred, obj := id("s", 3), id("p", 2), id("o", 11)
	pats := []IDTriple{
		{},                // full scan
		{S: sub},          // S only (sorted-key walk)
		{P: pred},         // P only (byPred slice)
		{O: obj},          // O only (sorted-key walk)
		{S: sub, P: pred}, // SPO adjacency slice
		{P: pred, O: obj}, // POS adjacency slice
		{S: sub, O: obj},  // OSP adjacency slice
	}
	// A fully-bound pattern that exists.
	full := collectMatch(s, nil, IDTriple{S: sub})
	if len(full) > 0 {
		pats = append(pats, full[0])
	}
	scopes := [][]string{nil, {"http://g/0"}, {"http://g/1", "http://g/0"}}
	for _, pat := range pats {
		for _, graphs := range scopes {
			want := collectMatch(s, graphs, pat)
			for _, morsel := range []int{0, 1, 7, 64, 100000} {
				parts := s.MatchParts(graphs, pat, morsel)
				got := collectParts(parts)
				if len(got) != len(want) {
					t.Fatalf("pat %v graphs %v morsel %d: %d triples from parts, %d from MatchAny",
						pat, graphs, morsel, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pat %v graphs %v morsel %d: triple %d = %v, want %v",
							pat, graphs, morsel, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatchPartsGranularity checks that a small morsel actually splits
// large streams into multiple segments (otherwise nothing runs in
// parallel) and that early yield-stop only stops the one segment.
func TestMatchPartsGranularity(t *testing.T) {
	s := partitionedStore(t)
	parts := s.MatchParts(nil, IDTriple{}, 100)
	if len(parts) < 10 {
		t.Fatalf("full scan of %d triples split into only %d segments at morsel 100", s.Len(), len(parts))
	}
	// Stopping one segment early must not affect the others.
	n := 0
	parts[0](func(IDTriple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("yield-stop scanned %d triples, want 1", n)
	}
	rest := 0
	parts[1](func(IDTriple) bool { rest++; return true })
	if rest == 0 {
		t.Fatal("second segment empty after stopping the first")
	}
}

func TestChunkBounds(t *testing.T) {
	cases := []struct {
		n, morsel int
		want      [][2]int
	}{
		{0, 4, nil},
		{5, 0, [][2]int{{0, 5}}},
		{5, 10, [][2]int{{0, 5}}},
		{10, 4, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{8, 4, [][2]int{{0, 4}, {4, 8}}},
	}
	for _, c := range cases {
		got := ChunkBounds(c.n, c.morsel)
		if len(got) != len(c.want) {
			t.Fatalf("ChunkBounds(%d, %d) = %v, want %v", c.n, c.morsel, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ChunkBounds(%d, %d) = %v, want %v", c.n, c.morsel, got, c.want)
			}
		}
	}
}
