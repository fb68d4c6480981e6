package store

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
)

const g1 = "http://example.org/g1"

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func mustAdd(t *testing.T, s *Store, graph string, tr rdf.Triple) {
	t.Helper()
	if err := s.Add(graph, tr); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryEncodeDecode(t *testing.T) {
	d := NewDictionary()
	a := d.Encode(iri("a"))
	b := d.Encode(iri("b"))
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if got := d.Encode(iri("a")); got != a {
		t.Fatal("re-encoding changed id")
	}
	if d.Decode(a) != iri("a") {
		t.Fatal("decode mismatch")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup(iri("missing")); ok {
		t.Fatal("lookup of missing term succeeded")
	}
}

func TestDictionaryDecodePanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Decode(0) did not panic")
		}
	}()
	NewDictionary().Decode(0)
}

func TestAddRejectsInvalidTriple(t *testing.T) {
	s := New()
	err := s.Add(g1, rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")})
	if err == nil {
		t.Fatal("invalid triple accepted")
	}
}

func TestDuplicateTriplesIgnored(t *testing.T) {
	s := New()
	tr := rdf.Triple{S: iri("s"), P: iri("p"), O: iri("o")}
	mustAdd(t, s, g1, tr)
	mustAdd(t, s, g1, tr)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (set semantics)", s.Len())
	}
}

// buildRandom builds a store plus a mirror slice for brute-force checking.
func buildRandom(t *testing.T, r *rand.Rand, n int) (*Store, []rdf.Triple) {
	t.Helper()
	s := New()
	seen := map[rdf.Triple]bool{}
	var mirror []rdf.Triple
	for i := 0; i < n; i++ {
		tr := rdf.Triple{
			S: iri("s" + string(rune('a'+r.Intn(8)))),
			P: iri("p" + string(rune('a'+r.Intn(5)))),
			O: iri("o" + string(rune('a'+r.Intn(8)))),
		}
		mustAdd(t, s, g1, tr)
		if !seen[tr] {
			seen[tr] = true
			mirror = append(mirror, tr)
		}
	}
	return s, mirror
}

func matchSet(s *Store, graph string, pat [3]rdf.Term) []string {
	var idPat IDTriple
	bind := func(t rdf.Term) (ID, bool) {
		if !t.IsBound() {
			return 0, true
		}
		return s.Dict().Lookup(t)
	}
	var ok bool
	if idPat.S, ok = bind(pat[0]); !ok {
		return nil
	}
	if idPat.P, ok = bind(pat[1]); !ok {
		return nil
	}
	if idPat.O, ok = bind(pat[2]); !ok {
		return nil
	}
	var out []string
	s.MatchAny([]string{graph}, idPat, func(it IDTriple) bool {
		tr := rdf.Triple{S: s.Dict().Decode(it.S), P: s.Dict().Decode(it.P), O: s.Dict().Decode(it.O)}
		out = append(out, tr.String())
		return true
	})
	sort.Strings(out)
	return out
}

func bruteSet(mirror []rdf.Triple, pat [3]rdf.Term) []string {
	var out []string
	for _, tr := range mirror {
		if pat[0].IsBound() && tr.S != pat[0] {
			continue
		}
		if pat[1].IsBound() && tr.P != pat[1] {
			continue
		}
		if pat[2].IsBound() && tr.O != pat[2] {
			continue
		}
		out = append(out, tr.String())
	}
	sort.Strings(out)
	return out
}

// TestMatchAgainstBruteForce checks all eight access paths against a scan.
func TestMatchAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s, mirror := buildRandom(t, r, 400)
	terms := []rdf.Term{{}, iri("sa"), iri("sb"), iri("pa"), iri("pb"), iri("oa"), iri("ob")}
	for trial := 0; trial < 500; trial++ {
		pat := [3]rdf.Term{
			terms[r.Intn(len(terms))],
			terms[r.Intn(len(terms))],
			terms[r.Intn(len(terms))],
		}
		got := matchSet(s, g1, pat)
		want := bruteSet(mirror, pat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %v: got %v, want %v", pat, got, want)
		}
	}
}

func TestCardinalityConsistentWithCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s, _ := buildRandom(t, r, 300)
	g := s.Graph(g1)
	ids := []ID{0}
	for i := 1; i <= s.Dict().Len(); i++ {
		ids = append(ids, ID(i))
	}
	for trial := 0; trial < 300; trial++ {
		pat := IDTriple{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]}
		card, count := g.Cardinality(pat), g.Count(pat)
		if card < count {
			t.Fatalf("Cardinality(%v) = %d < Count %d", pat, card, count)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s, _ := buildRandom(t, r, 200)
	n := 0
	s.MatchAny([]string{g1}, IDTriple{}, func(IDTriple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop yielded %d, want 5", n)
	}
}

func TestMatchMissingGraph(t *testing.T) {
	s := New()
	s.MatchAny([]string{"http://nope"}, IDTriple{}, func(IDTriple) bool {
		t.Fatal("match on missing graph yielded")
		return false
	})
}

func TestMatchAnySpansGraphs(t *testing.T) {
	s := New()
	mustAdd(t, s, "g:a", rdf.Triple{S: iri("s1"), P: iri("p"), O: iri("o1")})
	mustAdd(t, s, "g:b", rdf.Triple{S: iri("s2"), P: iri("p"), O: iri("o2")})
	n := 0
	s.MatchAny(nil, IDTriple{}, func(IDTriple) bool { n++; return true })
	if n != 2 {
		t.Fatalf("MatchAny(all) = %d rows, want 2", n)
	}
	n = 0
	s.MatchAny([]string{"g:b"}, IDTriple{}, func(IDTriple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("MatchAny(g:b) = %d rows, want 1", n)
	}
}

func TestLoadNTriples(t *testing.T) {
	doc := `<http://ex/s> <http://ex/p> "v" .
<http://ex/s> <http://ex/p> "w" .
`
	s := New()
	n, err := s.LoadNTriples(g1, strings.NewReader(doc))
	if err != nil || n != 2 {
		t.Fatalf("LoadNTriples = %d, %v", n, err)
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d triples", s.Len())
	}
	if _, err := s.LoadNTriples(g1, strings.NewReader("garbage\n")); err == nil {
		t.Fatal("bad document accepted")
	}
}

func TestGraphURIsOrder(t *testing.T) {
	s := New()
	mustAdd(t, s, "g:z", rdf.Triple{S: iri("s"), P: iri("p"), O: iri("o")})
	mustAdd(t, s, "g:a", rdf.Triple{S: iri("s"), P: iri("p"), O: iri("o")})
	if got := s.GraphURIs(); !reflect.DeepEqual(got, []string{"g:z", "g:a"}) {
		t.Fatalf("GraphURIs = %v", got)
	}
}
