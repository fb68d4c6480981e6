// Package rdf implements the RDF data model: terms (IRIs, literals, blank
// nodes), triples, prefix management, and the N-Triples serialization format.
//
// The package is the shared vocabulary between the triple store, the SPARQL
// engine, and the RDFFrames core. Terms are small comparable values so they
// can be used directly as map keys.
package rdf

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms plus the zero value,
// which represents an unbound (null) slot in a solution or dataframe row.
type TermKind uint8

// Term kinds. Unbound is the zero value: a Term{} is "no value".
const (
	Unbound TermKind = iota
	IRIKind
	LiteralKind
	BlankKind
)

// Well-known XSD datatype IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDGYear    = "http://www.w3.org/2001/XMLSchema#gYear"
)

// RDFType is the rdf:type predicate IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Term is an RDF term. For IRIs, Value is the absolute IRI. For literals,
// Value is the lexical form, Datatype the datatype IRI ("" means xsd:string),
// and Lang the optional language tag. For blank nodes, Value is the label.
//
// Term is comparable; the zero Term is the unbound value.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRIKind, Value: iri} }

// NewLiteral returns a plain string literal.
func NewLiteral(lexical string) Term { return Term{Kind: LiteralKind, Value: lexical} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: LiteralKind, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged string literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: LiteralKind, Value: lexical, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: BlankKind, Value: label} }

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(v float64) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatFloat(v, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRIKind }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == LiteralKind }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankKind }

// IsBound reports whether t is a bound value (not the zero Term).
func (t Term) IsBound() bool { return t.Kind != Unbound }

// IsNumeric reports whether t is a literal with a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != LiteralKind {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble:
		return true
	}
	return false
}

// AsFloat returns the numeric value of a literal. It succeeds for numeric
// datatypes and for plain literals whose lexical form parses as a number.
func (t Term) AsFloat() (float64, bool) {
	if t.Kind != LiteralKind {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// AsInt returns the integer value of a literal.
func (t Term) AsInt() (int64, bool) {
	if t.Kind != LiteralKind {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	if err != nil {
		f, ok := t.AsFloat()
		if !ok || f != math.Trunc(f) {
			return 0, false
		}
		return int64(f), true
	}
	return n, true
}

// AsBool returns the boolean value of an xsd:boolean literal.
func (t Term) AsBool() (bool, bool) {
	if t.Kind != LiteralKind {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// Year extracts the year from an xsd:date, xsd:dateTime or xsd:gYear literal
// (or any literal whose lexical form starts with a 4-digit year).
func (t Term) Year() (int, bool) {
	if t.Kind != LiteralKind {
		return 0, false
	}
	s := t.Value
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if len(s) < 4 {
		return 0, false
	}
	y, err := strconv.Atoi(s[:4])
	if err != nil {
		return 0, false
	}
	if neg {
		y = -y
	}
	return y, true
}

// String renders the term in N-Triples/SPARQL syntax. The unbound term
// renders as the empty string.
func (t Term) String() string {
	switch t.Kind {
	case IRIKind:
		return "<" + t.Value + ">"
	case LiteralKind:
		s := `"` + EscapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	case BlankKind:
		return "_:" + t.Value
	}
	return ""
}

// Compare orders terms per the SPARQL ORDER BY total order: unbound <
// blank nodes < IRIs < literals. Among literals, those with a numeric
// datatype and a valid, non-NaN value come first, by value; every other
// literal (plain, xsd:string, language-tagged, ill-typed, NaN) follows.
// Remaining ties break on (value or lexical form, datatype, language), so
// the order is total and Compare returns 0 only for identical terms.
func Compare(a, b Term) int { return CompareKeyed(a, KeyOf(a), b, KeyOf(b)) }

// OrderKey is what Compare parses out of a term: its class in the order
// and, for a numeric literal, its value. A sort over many terms computes
// it once per term and compares with CompareKeyed.
type OrderKey struct {
	class uint8
	num   float64
}

// The order classes, least first.
const (
	unboundClass uint8 = iota
	blankClass
	iriClass
	numericClass
	literalClass
)

// KeyOf returns t's order key. Only a numeric datatype is parsed: a failed
// parse allocates its error, and most literals are not numeric.
func KeyOf(t Term) OrderKey {
	switch t.Kind {
	case BlankKind:
		return OrderKey{class: blankClass}
	case IRIKind:
		return OrderKey{class: iriClass}
	case LiteralKind:
		if t.IsNumeric() {
			if f, ok := t.AsFloat(); ok {
				return OrderKey{class: numericClass, num: f}
			}
		}
		return OrderKey{class: literalClass}
	}
	return OrderKey{class: unboundClass}
}

// CompareKeyed is Compare for terms whose keys are already known:
// ka = KeyOf(a) and kb = KeyOf(b).
func CompareKeyed(a Term, ka OrderKey, b Term, kb OrderKey) int {
	if ka.class != kb.class {
		return cmp.Compare(ka.class, kb.class)
	}
	if ka.class == numericClass {
		if c := cmp.Compare(ka.num, kb.num); c != 0 {
			return c
		}
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// Triple is an RDF triple (subject, predicate, object).
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples statement (without newline).
func (tr Triple) String() string {
	return fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O)
}

// Valid reports whether the triple is well formed per the RDF data model:
// subject is an IRI or blank node, predicate an IRI, object any bound term.
func (tr Triple) Valid() bool {
	if tr.S.Kind != IRIKind && tr.S.Kind != BlankKind {
		return false
	}
	if tr.P.Kind != IRIKind {
		return false
	}
	return tr.O.IsBound()
}

// EscapeLiteral escapes a literal lexical form for N-Triples/SPARQL output.
func EscapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ { // byte by byte: bytes that are not UTF-8 pass through
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// UnescapeLiteral reverses EscapeLiteral, also handling \uXXXX and \UXXXXXXXX.
func UnescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape in literal %q", s)
		}
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case '"':
			b.WriteByte('"')
		case '\'':
			b.WriteByte('\'')
		case '\\':
			b.WriteByte('\\')
		case 'u', 'U':
			n := 4
			if s[i] == 'U' {
				n = 8
			}
			if i+n >= len(s) {
				return "", fmt.Errorf("rdf: truncated \\%c escape in %q", s[i], s)
			}
			v, err := strconv.ParseUint(s[i+1:i+1+n], 16, 32)
			if err != nil {
				return "", fmt.Errorf("rdf: bad unicode escape in %q: %v", s, err)
			}
			b.WriteRune(rune(v))
			i += n
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in %q", s[i], s)
		}
	}
	return b.String(), nil
}
