package sparql

import (
	"fmt"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// The differential check for resolved expressions: an expression resolved
// against a row layout (evalDict.resolve) and evaluated over id cells must
// give what the term path gives over the same row as a Binding map — the
// same truth value and the same term, or a type error both ways — for
// every term kind the id tests shortcut or decode.

const xsd = "http://www.w3.org/2001/XMLSchema#"

// filterStoreTerms are interned in the store dictionary; filterComputed are
// not, so a row cell holding one carries an evaluator id, as a BIND value
// the store lacks does. filterTerms is both, then the unbound term.
var (
	filterStoreTerms = []rdf.Term{
		rdf.NewIRI("http://ex/a"),
		rdf.NewIRI("http://ex/b"),
		rdf.NewBlank("b1"),
		rdf.NewBlank("b2"),
		rdf.NewLiteral("1"),
		rdf.NewTypedLiteral("1", xsd+"string"),
		rdf.NewLangLiteral("1", "en"),
		rdf.NewTypedLiteral("1", xsd+"integer"),
		rdf.NewTypedLiteral("01", xsd+"integer"),
		rdf.NewTypedLiteral("1.0", xsd+"decimal"),
		rdf.NewTypedLiteral("1.0", xsd+"double"),
		rdf.NewTypedLiteral("NaN", xsd+"double"),
		rdf.NewTypedLiteral("abc", xsd+"integer"),
		rdf.NewTypedLiteral("2020-01-01", xsd+"date"),
	}
	filterComputed = []rdf.Term{
		rdf.NewTypedLiteral("1.00", xsd+"decimal"),
		rdf.NewTypedLiteral("2", xsd+"integer"),
		rdf.NewIRI("http://ex/computed"),
		rdf.NewLiteral("computed"),
	}
	filterTerms = append(append(append([]rdf.Term(nil), filterStoreTerms...), filterComputed...), rdf.Term{})
	filterVars  = []string{"a", "b", "c"}
)

// filterCase holds one row in both representations over one evaluator
// dictionary: cells in the layout filterVars names, in the order
// ?a ?b ?c.
type filterCase struct {
	dict  *evalDict
	cols  map[string]int
	cells []store.ID
	row   Binding
}

func newFilterDict() *evalDict {
	sd := store.NewDictionary()
	for _, term := range filterStoreTerms {
		sd.Encode(term)
	}
	return newEvalDict(sd)
}

// setRow binds ?a ?b ?c to the given terms (unbound terms leave the cell 0
// and the map without the key), interning computed terms through the
// evaluator dictionary as a BIND would — a computed term equal to a store
// term gets the store's id.
func (fc *filterCase) setRow(terms ...rdf.Term) {
	fc.row = Binding{}
	for i, term := range terms {
		fc.cells[i] = fc.dict.encode(term)
		if term.IsBound() {
			fc.row[filterVars[i]] = term
		}
	}
}

// check evaluates e both ways on the current row.
func (fc *filterCase) check(t *testing.T, e Expression) {
	t.Helper()
	fc.checkResolved(t, e, fc.dict.resolve(e, fc.cols))
}

func (fc *filterCase) checkResolved(t *testing.T, e, resolved Expression) {
	t.Helper()
	want, wantErr := evalCond(e, &evalCtx{row: fc.row, cache: &regexCache{}})
	got, gotErr := evalCond(resolved, &evalCtx{cells: fc.cells, dict: fc.dict, cache: &regexCache{}})
	if (wantErr != nil) != (gotErr != nil) || wantErr == nil && got != want {
		t.Fatalf("%s over %v: resolved gives %v (error %v), terms give %v (error %v)", exprString(e), fc.row, got, gotErr, want, wantErr)
	}
	if EvalCondition(e, fc.row) != evalBool(resolved, &evalCtx{cells: fc.cells, dict: fc.dict, cache: &regexCache{}}) {
		t.Fatalf("%s over %v: FILTER disagrees", exprString(e), fc.row)
	}
	// BIND, projections and ORDER BY keys use the value itself.
	wantV, wantErr := EvalExpression(e, fc.row)
	gotV, gotErr := evalExpr(resolved, &evalCtx{cells: fc.cells, dict: fc.dict, cache: &regexCache{}})
	if (wantErr != nil) != (gotErr != nil) || wantErr == nil && gotV != wantV {
		t.Fatalf("%s over %v: resolved value %v (error %v), term value %v (error %v)", exprString(e), fc.row, gotV, gotErr, wantV, wantErr)
	}
}

func newFilterCase() *filterCase {
	fc := &filterCase{dict: newFilterDict(), cols: map[string]int{}, cells: make([]store.ID, len(filterVars))}
	for i, v := range filterVars {
		fc.cols[v] = i
	}
	return fc
}

func exprString(e Expression) string {
	switch x := e.(type) {
	case ExVar:
		return "?" + x.Name
	case ExTerm:
		return x.Term.String()
	case ExBinary:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case ExUnary:
		return x.Op + exprString(x.E)
	case ExIn:
		s := exprString(x.E)
		if x.Neg {
			s += " NOT"
		}
		s += " IN ("
		for i, it := range x.List {
			if i > 0 {
				s += ", "
			}
			s += exprString(it)
		}
		return s + ")"
	case ExCall:
		s := x.Name + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ", "
			}
			s += exprString(a)
		}
		return s + ")"
	}
	return fmt.Sprintf("%#v", e)
}

// TestFilterIDsMatchTerms runs every operator the id tests cover, in every
// operand shape (var/var, var/const, const/var, a variable the layout
// lacks), with every constant, and value-shaped expressions, over every
// assignment of two variables, and checks that the shapes resolve to id
// tests rather than falling back.
func TestFilterIDsMatchTerms(t *testing.T) {
	a, b, z := ExVar{Name: "a"}, ExVar{Name: "b"}, ExVar{Name: "z"}
	exprs := []Expression{
		ExBinary{Op: "=", L: a, R: b},
		ExBinary{Op: "!=", L: a, R: b},
		ExBinary{Op: "=", L: a, R: a},
		ExBinary{Op: "=", L: a, R: z},
		ExBinary{Op: "!=", L: z, R: b},
		ExIn{E: a, List: []Expression{b}},
		ExIn{E: a, List: []Expression{z, b}, Neg: true},
		ExIn{E: a, List: nil},
		ExCall{Name: "isIRI", Args: []Expression{a}},
		ExCall{Name: "isURI", Args: []Expression{b}},
		ExCall{Name: "isBlank", Args: []Expression{a}},
		ExCall{Name: "isLiteral", Args: []Expression{b}},
		ExCall{Name: "isLiteral", Args: []Expression{z}},
		ExUnary{Op: "!", E: ExBinary{Op: "=", L: a, R: b}},
		ExBinary{Op: "||", L: ExBinary{Op: "=", L: a, R: b}, R: ExCall{Name: "isBlank", Args: []Expression{b}}},
		ExBinary{Op: "&&", L: ExBinary{Op: "!=", L: a, R: b}, R: ExCall{Name: "isLiteral", Args: []Expression{a}}},
		ExBinary{Op: "||", L: ExBinary{Op: "=", L: a, R: z}, R: ExUnary{Op: "!", E: ExCall{Name: "isIRI", Args: []Expression{b}}}},
		// Shapes that keep the term path but read their variables by column.
		ExBinary{Op: "=", L: ExCall{Name: "str", Args: []Expression{a}}, R: ExTerm{rdf.NewLiteral("1")}},
		ExBinary{Op: "<", L: a, R: b},
		ExCall{Name: "bound", Args: []Expression{a}},
		ExCall{Name: "bound", Args: []Expression{z}},
		ExIn{E: a, List: []Expression{ExCall{Name: "str", Args: []Expression{b}}, b}},
		// Value shapes, as BIND, a projection or an ORDER BY key reads them.
		ExBinary{Op: "+", L: a, R: ExTerm{rdf.NewInteger(1)}},
		ExCall{Name: "str", Args: []Expression{a}},
		ExCall{Name: "abs", Args: []Expression{b}},
		ExCall{Name: "str", Args: []Expression{ExBinary{Op: "=", L: a, R: b}}},
	}
	for _, k := range filterTerms[:len(filterTerms)-1] {
		c := ExTerm{k}
		exprs = append(exprs,
			ExBinary{Op: "=", L: a, R: c},
			ExBinary{Op: "!=", L: c, R: b},
			ExIn{E: a, List: []Expression{b, c}},
			ExIn{E: c, List: []Expression{a}, Neg: true},
		)
	}
	fc := newFilterCase()
	for _, e := range exprs {
		resolved := fc.dict.resolve(e, fc.cols)
		if x, ok := e.(ExBinary); ok && (x.Op == "=" || x.Op == "!=") {
			if _, ok := x.L.(ExCall); !ok {
				if _, ok := resolved.(exIDEqual); !ok {
					t.Fatalf("%s resolved to %T, not an id test", exprString(e), resolved)
				}
			}
		}
		for _, ta := range filterTerms {
			for _, tb := range filterTerms {
				fc.setRow(ta, tb, rdf.Term{})
				fc.checkResolved(t, e, resolved)
			}
		}
	}
}

// filterExpr decodes a condition from fuzz bytes: an operator byte, then
// its operands, each a variable (?a ?b ?c or ?z, which no layout has) or a
// constant from filterTerms.
type filterExpr struct {
	data []byte
}

func (d *filterExpr) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *filterExpr) operand() Expression {
	b := d.next()
	if b&1 == 0 {
		return ExVar{Name: []string{"a", "b", "c", "z"}[b>>1%4]}
	}
	return ExTerm{filterTerms[int(b>>1)%(len(filterTerms)-1)]}
}

func (d *filterExpr) expr(depth int) Expression {
	op := d.next() % 10
	if depth >= 3 {
		op %= 7
	}
	switch op {
	case 0, 1:
		return ExBinary{Op: []string{"=", "!="}[op], L: d.operand(), R: d.operand()}
	case 2, 3:
		in := ExIn{E: d.operand(), Neg: op == 3}
		for n := d.next() % 4; n > 0; n-- {
			in.List = append(in.List, d.operand())
		}
		return in
	case 4, 5, 6:
		return ExCall{Name: []string{"isIRI", "isBlank", "isLiteral"}[op-4], Args: []Expression{d.operand()}}
	case 7, 8:
		return ExBinary{Op: []string{"&&", "||"}[op-7], L: d.expr(depth + 1), R: d.expr(depth + 1)}
	}
	return ExUnary{Op: "!", E: d.expr(depth + 1)}
}

// FuzzFilterIDs: the first three bytes pick the terms of ?a ?b ?c (the
// unbound term among them), the rest decode one condition; the resolved
// condition over id cells must agree with the term path over the Binding.
// The seed corpus is testdata/fuzz/FuzzFilterIDs.
func FuzzFilterIDs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newFilterCase()
		d := &filterExpr{data: data}
		row := make([]rdf.Term, len(filterVars))
		for i := range row {
			row[i] = filterTerms[int(d.next())%len(filterTerms)]
		}
		fc.setRow(row...)
		fc.check(t, d.expr(0))
	})
}
