package rdf

import (
	"cmp"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() || !iri.IsBound() {
		t.Fatalf("IRI predicates wrong: %+v", iri)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Datatype != "" || lit.Lang != "" {
		t.Fatalf("plain literal wrong: %+v", lit)
	}
	if bl := NewBlank("b1"); !bl.IsBlank() {
		t.Fatalf("blank predicate wrong: %+v", bl)
	}
	var zero Term
	if zero.IsBound() {
		t.Fatal("zero Term must be unbound")
	}
}

func TestTypedLiteralNormalizesXSDString(t *testing.T) {
	l := NewTypedLiteral("x", XSDString)
	if l.Datatype != "" {
		t.Fatalf("xsd:string should normalize to empty datatype, got %q", l.Datatype)
	}
	if l != NewLiteral("x") {
		t.Fatal("typed xsd:string literal should equal plain literal")
	}
}

func TestNumericAccessors(t *testing.T) {
	n := NewInteger(42)
	if !n.IsNumeric() {
		t.Fatal("integer literal should be numeric")
	}
	if f, ok := n.AsFloat(); !ok || f != 42 {
		t.Fatalf("AsFloat = %v, %v", f, ok)
	}
	if i, ok := n.AsInt(); !ok || i != 42 {
		t.Fatalf("AsInt = %v, %v", i, ok)
	}
	d := NewDecimal(2.5)
	if i, ok := d.AsInt(); ok {
		t.Fatalf("non-integral decimal should not convert to int, got %d", i)
	}
	if _, ok := NewIRI("http://x").AsFloat(); ok {
		t.Fatal("IRI must not convert to float")
	}
	b := NewBoolean(true)
	if v, ok := b.AsBool(); !ok || !v {
		t.Fatalf("AsBool = %v, %v", v, ok)
	}
}

func TestYear(t *testing.T) {
	cases := []struct {
		term Term
		want int
		ok   bool
	}{
		{NewTypedLiteral("2015-04-09", XSDDate), 2015, true},
		{NewTypedLiteral("2003-01-01T00:00:00", XSDDateTime), 2003, true},
		{NewTypedLiteral("1999", XSDGYear), 1999, true},
		{NewLiteral("07"), 0, false},
		{NewIRI("http://x"), 0, false},
	}
	for _, c := range cases {
		got, ok := c.term.Year()
		if got != c.want || ok != c.ok {
			t.Errorf("Year(%v) = %d,%v; want %d,%v", c.term, got, ok, c.want, c.ok)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex/a"), "<http://ex/a>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewInteger(7), `"7"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
		{Term{}, ""},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Term{
		{},
		NewBlank("a"),
		NewIRI("http://a"),
		NewIRI("http://b"),
		NewInteger(1),
		NewInteger(2),
		NewInteger(10),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestCompareNumericBeatsLexicographic(t *testing.T) {
	if Compare(NewInteger(9), NewInteger(10)) >= 0 {
		t.Fatal("numeric literals must compare by value, not lexically")
	}
}

// compareZoo is a term of every shape Compare has a rule for: each kind,
// numerics of every datatype (equal values in different lexical forms,
// signed zeros, infinities), NaN, ill-typed numerics, and literals whose
// lexical forms are numbers but whose datatypes are not numeric.
func compareZoo() []Term {
	return []Term{
		{},
		NewBlank("a"), NewBlank("10"),
		NewIRI("http://a"), NewIRI("10"), NewIRI(""),
		NewInteger(9), NewInteger(10), NewInteger(-3), NewInteger(0),
		NewTypedLiteral("-0", XSDInteger), NewTypedLiteral("010", XSDInteger),
		NewTypedLiteral("9.0", XSDDecimal), NewDecimal(9.5), NewDecimal(0.1),
		NewTypedLiteral("1e1", XSDDouble), NewTypedLiteral("INF", XSDDouble), NewTypedLiteral("-INF", XSDDouble),
		NewTypedLiteral("NaN", XSDDouble), NewTypedLiteral("5x", XSDInteger), NewTypedLiteral("", XSDDecimal),
		NewTypedLiteral("1e400", XSDDouble),
		NewLiteral("5"), NewLiteral("10"), NewLiteral("a"), NewLiteral(""),
		NewLangLiteral("a", "en"), NewLangLiteral("a", "fr"), NewLangLiteral("5", "en"),
		NewTypedLiteral("5", XSDDate), NewTypedLiteral("2001", XSDGYear), NewBoolean(true),
		{Kind: LiteralKind, Value: "10", Datatype: XSDString},
	}
}

// TestCompareTotalOrder: Compare is a total order over the zoo. It is
// antisymmetric, returns 0 only for identical terms, and is transitive on
// every triple. Mixing numeric and non-numeric literals used to make it
// cycle: 10 > 9 > "5" > 10.
func TestCompareTotalOrder(t *testing.T) {
	zoo := compareZoo()
	sign := func(c int) int { return cmp.Compare(c, 0) }
	for _, a := range zoo {
		for _, b := range zoo {
			ab, ba := Compare(a, b), Compare(b, a)
			if sign(ab) != -sign(ba) {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			if (ab == 0) != (a == b) {
				t.Errorf("Compare(%#v, %#v) = %d", a, b, ab)
			}
			for _, c := range zoo {
				if ab < 0 && Compare(b, c) < 0 && Compare(a, c) >= 0 {
					t.Errorf("%v < %v < %v but Compare(%v, %v) = %d", a, b, c, a, c, Compare(a, c))
				}
			}
		}
	}
	// Valid numerics first, by value; then every other literal lexically.
	for _, lt := range [][2]Term{
		{NewInteger(9), NewInteger(10)},
		{NewInteger(10), NewLiteral("5")},
		{NewInteger(10), NewTypedLiteral("5x", XSDInteger)},
		{NewTypedLiteral("INF", XSDDouble), NewTypedLiteral("NaN", XSDDouble)},
		{NewTypedLiteral("-0", XSDInteger), NewInteger(0)}, // equal values: lexical form
		{NewTypedLiteral("10", XSDDouble), NewTypedLiteral("10", XSDInteger)},
		{NewLiteral("10"), NewLangLiteral("10", "en")},
	} {
		if Compare(lt[0], lt[1]) >= 0 {
			t.Errorf("Compare(%v, %v) >= 0", lt[0], lt[1])
		}
	}
}

func TestTripleValid(t *testing.T) {
	s, p, o := NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o")
	if !(Triple{s, p, o}).Valid() {
		t.Fatal("valid triple rejected")
	}
	if (Triple{o, p, o}).Valid() {
		t.Fatal("literal subject accepted")
	}
	if (Triple{s, NewBlank("b"), o}).Valid() {
		t.Fatal("blank predicate accepted")
	}
	if (Triple{s, p, Term{}}).Valid() {
		t.Fatal("unbound object accepted")
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, err := UnescapeLiteral(EscapeLiteral(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeUnicode(t *testing.T) {
	got, err := UnescapeLiteral(`café \U0001F600`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "café \U0001F600" {
		t.Fatalf("got %q", got)
	}
	if _, err := UnescapeLiteral(`\q`); err == nil {
		t.Fatal("unknown escape accepted")
	}
	if _, err := UnescapeLiteral(`trailing\`); err == nil {
		t.Fatal("dangling escape accepted")
	}
}

// randomTerm generates an arbitrary bound term for property tests.
func randomTerm(r *rand.Rand) Term {
	switch r.Intn(4) {
	case 0:
		return NewIRI("http://example.org/e" + randWord(r))
	case 1:
		return NewLiteral(randText(r))
	case 2:
		return NewLangLiteral(randText(r), []string{"en", "de", "fr"}[r.Intn(3)])
	default:
		return NewInteger(int64(r.Intn(10000) - 5000))
	}
}

func randWord(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789_"
	n := 1 + r.Intn(10)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func randText(r *rand.Rand) string {
	const chars = "abc XYZ\"\\\n\té日"
	runes := []rune(chars)
	n := r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[r.Intn(len(runes))]
	}
	return string(out)
}

func TestTermStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		want := randomTerm(r)
		got, err := ParseTerm(want.String())
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", want.String(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %#v, want %#v", got, want)
		}
	}
}
