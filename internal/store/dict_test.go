package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
)

// TestDictionaryTermIdentity: terms that differ only in kind, datatype or
// language get distinct ids, and every id decodes to exactly the term that
// was interned — including a literal whose xsd:string datatype was set
// without the constructor, which is not the plain literal — and has that
// term without its value as its Type.
func TestDictionaryTermIdentity(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewLiteral("1"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger),
		rdf.NewLangLiteral("1", "en"),
		rdf.NewLangLiteral("1", "de"),
		rdf.NewIRI("1"),
		rdf.NewBlank("1"),
		{Kind: rdf.LiteralKind, Value: "1", Datatype: rdf.XSDString},
		{Kind: rdf.LiteralKind, Value: "1", Datatype: rdf.XSDInteger, Lang: "en"},
		rdf.NewLiteral(""),
		rdf.NewIRI(""),
	}
	for _, d := range []*Dictionary{NewDictionary(), newDictionary(0)} {
		for round := 0; round < 2; round++ { // the second round re-encodes
			for i, term := range terms {
				if id := d.Encode(term); id != ID(i+1) {
					t.Fatalf("round %d: Encode(%#v) = %d, want %d", round, term, id, i+1)
				}
			}
		}
		for i, term := range terms {
			if got := d.Decode(ID(i + 1)); got != term {
				t.Fatalf("Decode(%d) = %#v, want %#v", i+1, got, term)
			}
			if typ, want := d.Type(ID(i+1)), (rdf.Term{Kind: term.Kind, Datatype: term.Datatype, Lang: term.Lang}); typ != want {
				t.Fatalf("Type(%d) = %#v, want %#v", i+1, typ, want)
			}
			if id, ok := d.Lookup(term); !ok || id != ID(i+1) {
				t.Fatalf("Lookup(%#v) = %d, %v", term, id, ok)
			}
		}
		if _, ok := d.Lookup(rdf.NewTypedLiteral("1", rdf.XSDDecimal)); ok {
			t.Fatal("a literal with an unseen datatype was found")
		}
		if d.Len() != len(terms) {
			t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
		}
	}
}

// wrapped reports whether some slot holds an entry whose probe chain
// started at a higher index and wrapped past the end of the table.
func (d *Dictionary) wrapped() bool {
	mask := uint32(len(d.slots) - 1)
	for i, s := range d.slots {
		if s != 0 && uint32(s>>32)&mask > uint32(i) {
			return true
		}
	}
	return false
}

// TestDictionaryGrowthAndProbeChains interns terms into a table that starts
// at its smallest size until it has grown several times and holds a probe
// chain that wraps around its end. Every term must still be found under its
// id, and a term not interned must miss from every slot a chain can start
// at.
func TestDictionaryGrowthAndProbeChains(t *testing.T) {
	d := newDictionary(0)
	initial := len(d.slots)
	var terms []rdf.Term
	for i := 0; len(d.slots) < 16*initial || !d.wrapped(); i++ {
		if i == 1<<16 {
			t.Fatalf("no wrapped probe chain in %d slots after %d terms", len(d.slots), i)
		}
		term := rdf.NewIRI(fmt.Sprintf("http://ex/t%d", i))
		if i%3 == 1 {
			term = rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)
		}
		terms = append(terms, term)
		if id := d.Encode(term); id != ID(len(terms)) {
			t.Fatalf("Encode(%v) = %d, want %d", term, id, len(terms))
		}
	}
	used := 0
	for _, s := range d.slots {
		if s != 0 {
			used++
		}
	}
	if used != len(terms) || 4*used > 3*len(d.slots) {
		t.Fatalf("%d slots used of %d for %d terms", used, len(d.slots), len(terms))
	}
	for i, term := range terms {
		if id, ok := d.Lookup(term); !ok || id != ID(i+1) || d.Decode(id) != term {
			t.Fatalf("term %d (%v): Lookup = %d, %v", i+1, term, id, ok)
		}
	}
	mask := uint32(len(d.slots) - 1)
	missed := make([]bool, len(d.slots))
	for i, left := 0, len(missed); left > 0; i++ {
		if i == 1<<22 {
			t.Fatalf("%d of %d probe-chain starts never drawn", left, len(missed))
		}
		miss := rdf.NewIRI(fmt.Sprintf("http://ex/missing%d", i))
		if home := d.hash(miss) & mask; !missed[home] {
			if id, ok := d.Lookup(miss); ok {
				t.Fatalf("Lookup of a term never interned returned id %d", id)
			}
			missed[home] = true
			left--
		}
	}
}

// TestDictionaryHotPathsAllocationFree pins the dictionary's read paths and
// the re-encoding of a known term to zero allocations.
func TestDictionaryHotPathsAllocationFree(t *testing.T) {
	d := NewDictionary()
	a, lit, absent := iri("a"), rdf.NewLangLiteral("chat", "fr"), iri("absent")
	aID, litID := d.Encode(a), d.Encode(lit)
	var sink rdf.Term
	for name, f := range map[string]func(){
		"Decode": func() { sink = d.Decode(aID); sink = d.Decode(litID) },
		"Lookup": func() { d.Lookup(a); d.Lookup(lit); d.Lookup(absent) },
		"Encode": func() { d.Encode(a); d.Encode(lit) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
	_ = sink
}

// orderTerm draws a term of a shape the order has a rule for: IRIs, blank
// nodes, numerics of three datatypes (some sharing a value), NaN,
// ill-typed numerics, language-tagged and plain literals.
func orderTerm(rng *rand.Rand) rdf.Term {
	n := fmt.Sprint(rng.Intn(40) - 10)
	switch rng.Intn(10) {
	case 0:
		return rdf.NewIRI("http://ex/" + n)
	case 1:
		return rdf.NewBlank("b" + n)
	case 2:
		return rdf.NewTypedLiteral(n, rdf.XSDInteger)
	case 3:
		return rdf.NewTypedLiteral(n+".0", rdf.XSDDecimal)
	case 4:
		return rdf.NewTypedLiteral(n+"e0", rdf.XSDDouble)
	case 5:
		return rdf.NewTypedLiteral([]string{"NaN", "INF", "-INF"}[rng.Intn(3)], rdf.XSDDouble)
	case 6:
		return rdf.NewTypedLiteral(n+"x", rdf.XSDInteger)
	case 7:
		return rdf.NewLangLiteral(n, []string{"en", "fr"}[rng.Intn(2)])
	}
	return rdf.NewLiteral(n)
}

// TestDictionaryOrderMatchesCompare grows a dictionary in random steps and
// asks for the order after each: it must rank every id as sorting the terms
// by rdf.Compare does, leave the order it handed out before untouched, and
// be counted in Bytes.
func TestDictionaryOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d := newDictionary(0)
	var prev, prevCopy []uint32
	for step := 0; step < 60; step++ {
		for range rng.Intn([]int{1, 5, 80}[step%3]) {
			d.Encode(orderTerm(rng))
		}
		before := d.Bytes()
		ord := d.Order()
		if got, want := d.Bytes()-before, 4*(cap(ord)-cap(prev)); got != want {
			t.Fatalf("step %d: Bytes grew by %d with the order, want %d", step, got, want)
		}
		if !slices.Equal(prev, prevCopy) {
			t.Fatalf("step %d: the previous order was written to", step)
		}
		ids := make([]ID, d.Len())
		for i := range ids {
			ids[i] = ID(i + 1)
		}
		slices.SortFunc(ids, func(a, b ID) int { return rdf.Compare(d.Decode(a), d.Decode(b)) })
		if len(ord) != d.Len()+1 || ord[0] != 0 {
			t.Fatalf("step %d: order of %d entries for %d terms, ord[0] = %d", step, len(ord), d.Len(), ord[0])
		}
		for pos, id := range ids {
			if ord[id] != uint32(pos+1) {
				t.Fatalf("step %d: %v is at %d, sorting puts it at %d", step, d.Decode(id), ord[id], pos+1)
			}
		}
		if again := d.Order(); &again[0] != &ord[0] {
			t.Fatalf("step %d: the order was rebuilt with no new terms", step)
		}
		prev, prevCopy = ord, slices.Clone(ord)
	}
}
