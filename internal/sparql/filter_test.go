package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// The differential check for resolved expressions: an expression resolved
// against a row layout (evalDict.resolve) and evaluated over id cells, and
// the same expression evaluated over the row as a Binding map, must give
// what the term-path reference (refExpr, below) gives over that Binding —
// the same truth value and the same term once the value is materialised,
// or a type error both ways — for every term kind the id tests shortcut
// or decode and every number the evaluator computes.

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
		rdf.NewTypedLiteral("9007199254740993", xsd+"integer"), // 2^53+1: no float64 holds it
		rdf.NewTypedLiteral("9.3e18", xsd+"integer"),           // outside int64
		rdf.NewTypedLiteral("-0", xsd+"integer"),
		rdf.NewTypedLiteral("-0", xsd+"decimal"),
		rdf.NewLiteral("12"), // arithmetic reads a plain literal's number
		rdf.NewTypedLiteral("2005-06-01T00:00:00", xsd+"dateTime"),
		rdf.NewTypedLiteral("INF", xsd+"double"), // INF - INF is a computed NaN
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
	ids := func() *evalCtx { return &evalCtx{cells: fc.cells, dict: fc.dict, cache: &regexCache{}} }
	ref := &refCtx{row: fc.row, cache: &regexCache{}}
	want, wantErr := refCond(e, ref)
	got, gotErr := evalCond(resolved, ids())
	if (wantErr != nil) != (gotErr != nil) || wantErr == nil && got != want {
		t.Fatalf("%s over %v: resolved gives %v (error %v), reference gives %v (error %v)", exprString(e), fc.row, got, gotErr, want, wantErr)
	}
	keep := wantErr == nil && want
	if EvalCondition(e, fc.row) != keep || evalBool(resolved, ids()) != keep {
		t.Fatalf("%s over %v: FILTER disagrees with the reference (%v)", exprString(e), fc.row, keep)
	}
	// BIND, projections and ORDER BY keys materialise the value.
	wantV, wantErr := refExpr(e, ref)
	v, gotErr := evalExpr(resolved, ids())
	if gotV := v.term(); (wantErr != nil) != (gotErr != nil) || wantErr == nil && gotV != wantV {
		t.Fatalf("%s over %v: resolved value %v (error %v), reference value %v (error %v)", exprString(e), fc.row, gotV, gotErr, wantV, wantErr)
	}
	gotV, gotErr := EvalExpression(e, fc.row)
	if (wantErr != nil) != (gotErr != nil) || wantErr == nil && gotV != wantV {
		t.Fatalf("%s over %v: Binding value %v (error %v), reference value %v (error %v)", exprString(e), fc.row, gotV, gotErr, wantV, wantErr)
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
		// Numbers the evaluator computes, and what reads them: cs2's year
		// filter, ordering comparisons, arithmetic over every operand
		// shape, unary minus, abs, strlen and the casts.
		ExBinary{Op: ">=", L: ExCall{Name: "year", Args: []Expression{ExCall{Name: xsd + "dateTime", Args: []Expression{a}, IRI: true}}}, R: ExTerm{rdf.NewInteger(2005)}},
		ExBinary{Op: "<", L: a, R: ExTerm{rdf.NewDecimal(0.5)}},
		ExBinary{Op: "<=", L: ExBinary{Op: "*", L: a, R: b}, R: ExTerm{rdf.NewInteger(1)}},
		ExBinary{Op: ">", L: ExBinary{Op: "-", L: a, R: b}, R: ExTerm{rdf.NewLiteral("1")}},
		ExBinary{Op: "=", L: ExBinary{Op: "+", L: a, R: b}, R: ExBinary{Op: "+", L: b, R: a}},
		ExBinary{Op: "!=", L: ExUnary{Op: "-", E: a}, R: b},
		ExBinary{Op: "-", L: a, R: b},
		ExBinary{Op: "*", L: a, R: ExTerm{rdf.NewDecimal(-1)}},
		ExBinary{Op: "*", L: ExBinary{Op: "*", L: a, R: ExTerm{rdf.NewInteger(1)}}, R: ExTerm{rdf.NewDecimal(-1)}},
		ExBinary{Op: "/", L: a, R: b},
		ExBinary{Op: "+", L: ExBinary{Op: "*", L: a, R: a}, R: ExUnary{Op: "-", E: b}},
		ExUnary{Op: "-", E: a},
		ExUnary{Op: "-", E: ExUnary{Op: "-", E: b}},
		ExCall{Name: "abs", Args: []Expression{ExBinary{Op: "-", L: a, R: b}}},
		ExCall{Name: "year", Args: []Expression{a}},
		ExCall{Name: "strlen", Args: []Expression{a}},
		ExBinary{Op: "+", L: ExCall{Name: "strlen", Args: []Expression{a}}, R: ExCall{Name: "year", Args: []Expression{b}}},
		ExCall{Name: xsd + "integer", Args: []Expression{ExBinary{Op: "/", L: a, R: b}}, IRI: true},
		ExCall{Name: "str", Args: []Expression{ExBinary{Op: "+", L: a, R: b}}},
		ExCall{Name: "isNumeric", Args: []Expression{ExUnary{Op: "-", E: a}}},
		ExIn{E: ExBinary{Op: "*", L: a, R: ExTerm{rdf.NewInteger(1)}}, List: []Expression{b, ExTerm{rdf.NewInteger(1)}}},
		ExBinary{Op: "||", L: ExBinary{Op: "-", L: a, R: b}, R: ExBinary{Op: "<", L: b, R: a}},
		ExBinary{Op: "=", L: ExBinary{Op: "-", L: a, R: b}, R: ExBinary{Op: "-", L: a, R: b}},
		ExBinary{Op: "<", L: ExBinary{Op: "-", L: a, R: b}, R: ExTerm{rdf.NewInteger(1)}},
	}
	for _, k := range filterTerms[:len(filterTerms)-1] {
		c := ExTerm{k}
		exprs = append(exprs,
			ExBinary{Op: "=", L: a, R: c},
			ExBinary{Op: "!=", L: c, R: b},
			ExIn{E: a, List: []Expression{b, c}},
			ExIn{E: c, List: []Expression{a}, Neg: true},
			// Resolved, a numeric constant may be a parsed number.
			ExBinary{Op: ">=", L: a, R: c},
			ExBinary{Op: "+", L: c, R: b},
		)
	}
	fc := newFilterCase()
	for _, e := range exprs {
		resolved := fc.dict.resolve(e, fc.cols)
		if x, ok := e.(ExBinary); ok && (x.Op == "=" || x.Op == "!=") && isOperand(x.L) && isOperand(x.R) {
			if _, ok := resolved.(exIDEqual); !ok {
				t.Fatalf("%s resolved to %T, not an id test", exprString(e), resolved)
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

func isOperand(e Expression) bool {
	switch e.(type) {
	case ExVar, ExTerm:
		return true
	}
	return false
}

// filterExpr decodes a condition from fuzz bytes: an operator byte, then
// its operands, each a variable (?a ?b ?c or ?z, which no layout has) or a
// constant from filterTerms, or, under a comparison, a value expression:
// arithmetic, unary minus, abs, year, strlen or a cast over operands.
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

// value decodes a value expression; past depth 3 it is an operand.
func (d *filterExpr) value(depth int) Expression {
	k := d.next() % 8
	if depth >= 3 {
		k = 0
	}
	switch k {
	case 0:
		return d.operand()
	case 1, 2, 3, 4:
		return ExBinary{Op: []string{"+", "-", "*", "/"}[k-1], L: d.value(depth + 1), R: d.value(depth + 1)}
	case 5:
		return ExUnary{Op: "-", E: d.value(depth + 1)}
	case 6:
		return ExCall{Name: []string{"abs", "year", "strlen"}[d.next()%3], Args: []Expression{d.value(depth + 1)}}
	}
	return ExCall{Name: xsd + []string{"integer", "dateTime"}[d.next()%2], Args: []Expression{d.value(depth + 1)}, IRI: true}
}

func (d *filterExpr) expr(depth int) Expression {
	op := d.next() % 11
	if depth >= 3 && op >= 7 && op <= 9 {
		op -= 7
	}
	switch op {
	case 10:
		cmp := []string{"=", "!=", "<", "<=", ">", ">="}[d.next()%6]
		return ExBinary{Op: cmp, L: d.value(depth), R: d.value(depth)}
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
// condition over id cells and the condition over the Binding must agree
// with the term-path reference.
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

// The term-path reference: the expression evaluator as it was when every
// node returned a term, so every number it computes is a decimal string
// (refNumericTerm) that the next node parses back. It reads the row from a
// Binding and knows neither resolved nodes nor aggregates.
type refCtx struct {
	row   Binding
	cache *regexCache
}

// refExpr evaluates e over ctx.row, returning a term or errExpr.
func refExpr(e Expression, ctx *refCtx) (rdf.Term, error) {
	switch x := e.(type) {
	case ExTerm:
		return x.Term, nil
	case ExVar:
		t := ctx.row[x.Name]
		if !t.IsBound() {
			return rdf.Term{}, errExpr
		}
		return t, nil
	case ExUnary:
		return refUnary(x, ctx)
	case ExBinary:
		return refBinary(x, ctx)
	case ExCall:
		return refCall(x, ctx)
	case ExIn:
		return refIn(x, ctx)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown expression %T", e)
}

// refEBV computes the SPARQL effective boolean value of a term.
func refEBV(t rdf.Term) (bool, error) {
	if t.Kind != rdf.LiteralKind {
		return false, errExpr
	}
	if t.Datatype == rdf.XSDBoolean {
		b, ok := t.AsBool()
		if !ok {
			return false, errExpr
		}
		return b, nil
	}
	if t.IsNumeric() {
		f, ok := t.AsFloat()
		if !ok {
			return false, errExpr
		}
		return f != 0, nil
	}
	if t.Datatype == "" {
		return t.Value != "", nil
	}
	return false, errExpr
}

// refCond returns the effective boolean value of e, or errExpr.
func refCond(e Expression, ctx *refCtx) (bool, error) {
	switch x := e.(type) {
	case ExUnary:
		if x.Op == "!" {
			b, err := refCond(x.E, ctx)
			return !b, err
		}
	case ExBinary:
		if x.Op != "&&" && x.Op != "||" {
			break
		}
		// SPARQL logic: true || error is true and false && error is false;
		// otherwise an error operand makes the result an error.
		l, lerr := refCond(x.L, ctx)
		r, rerr := refCond(x.R, ctx)
		decided := x.Op == "||"
		if lerr == nil && l == decided || rerr == nil && r == decided {
			return decided, nil
		}
		if lerr != nil || rerr != nil {
			return false, errExpr
		}
		return !decided, nil
	}
	t, err := refExpr(e, ctx)
	if err != nil {
		return false, err
	}
	return refEBV(t)
}

func refUnary(x ExUnary, ctx *refCtx) (rdf.Term, error) {
	if x.Op == "!" {
		b, err := refCond(x, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(b), nil
	}
	v, err := refExpr(x.E, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	if x.Op == "-" {
		f, ok := v.AsFloat()
		if !ok {
			return rdf.Term{}, errExpr
		}
		return refNumericTerm(-f, v), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown unary op %q", x.Op)
}

// refNumericTerm builds a numeric result term, preserving integer typing when
// both the value and the operand datatype allow it.
func refNumericTerm(f float64, like ...rdf.Term) rdf.Term {
	isInt := f == float64(int64(f))
	for _, t := range like {
		if t.Datatype != rdf.XSDInteger {
			isInt = false
		}
	}
	if isInt {
		return rdf.NewInteger(int64(f))
	}
	return rdf.NewDecimal(f)
}

func refBinary(x ExBinary, ctx *refCtx) (rdf.Term, error) {
	if x.Op == "&&" || x.Op == "||" {
		b, err := refCond(x, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(b), nil
	}
	l, err := refExpr(x.L, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := refExpr(x.R, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "=", "!=":
		eq, err := refEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return boolTerm(eq), nil
	case "<", "<=", ">", ">=":
		c, err := refCompare(l, r)
		if err == errRefUnordered {
			return boolTerm(false), nil
		}
		if err != nil {
			return rdf.Term{}, err
		}
		switch x.Op {
		case "<":
			return boolTerm(c < 0), nil
		case "<=":
			return boolTerm(c <= 0), nil
		case ">":
			return boolTerm(c > 0), nil
		default:
			return boolTerm(c >= 0), nil
		}
	case "+", "-", "*", "/":
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return rdf.Term{}, errExpr
		}
		var f float64
		switch x.Op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		default:
			if rf == 0 {
				return rdf.Term{}, errExpr
			}
			f = lf / rf
		}
		return refNumericTerm(f, l, r), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown binary op %q", x.Op)
}

// refEqual implements SPARQL RDFterm-equal plus numeric value equality.
// A NaN is equal to nothing, itself included; an ill-typed numeric literal
// ("abc"^^xsd:integer) has no value, so it equals only the same term and
// comparing it with anything else is a type error.
func refEqual(l, r rdf.Term) (bool, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := refNumericValue(l)
		rf, rok := refNumericValue(r)
		if !lok || !rok {
			if l == r {
				return true, nil
			}
			return false, errExpr
		}
		return lf == rf, nil
	}
	return l == r, nil
}

// errRefUnordered is refCompare's answer for a NaN: every ordering
// comparison with it is false.
var errRefUnordered = fmt.Errorf("sparql: NaN is unordered")

// refCompare implements SPARQL operator comparison: numeric by value,
// strings lexically, dates lexically (ISO forms order correctly). An
// ill-typed numeric operand is a type error.
func refCompare(l, r rdf.Term) (int, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := refNumericValue(l)
		rf, rok := refNumericValue(r)
		switch {
		case !lok || !rok:
			return 0, errExpr
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		case lf == rf:
			return 0, nil
		}
		return 0, errRefUnordered
	}
	if l.Kind == rdf.LiteralKind && r.Kind == rdf.LiteralKind {
		return strings.Compare(l.Value, r.Value), nil
	}
	if l.Kind == rdf.IRIKind && r.Kind == rdf.IRIKind {
		return strings.Compare(l.Value, r.Value), nil
	}
	return 0, errExpr
}

// refNumericValue returns the value of a numeric literal, and false when its
// lexical form is ill-typed. "NaN"^^xsd:double is well-typed: its value is
// NaN, which rdf.Term.AsFloat refuses.
func refNumericValue(t rdf.Term) (float64, bool) {
	if f, ok := t.AsFloat(); ok {
		return f, true
	}
	if t.Datatype != rdf.XSDDouble {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return f, err == nil
}

func refIn(x ExIn, ctx *refCtx) (rdf.Term, error) {
	v, err := refExpr(x.E, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	found := false
	for _, item := range x.List {
		it, err := refExpr(item, ctx)
		if err != nil {
			continue
		}
		eq, err := refEqual(v, it)
		if err == nil && eq {
			found = true
			break
		}
	}
	if x.Neg {
		found = !found
	}
	return boolTerm(found), nil
}

func refCall(x ExCall, ctx *refCtx) (rdf.Term, error) {
	arg := func(i int) (rdf.Term, error) {
		if i >= len(x.Args) {
			return rdf.Term{}, errExpr
		}
		return refExpr(x.Args[i], ctx)
	}
	if x.IRI {
		return refCast(x, arg)
	}
	// A parsed builtin name is lowercase already, which ToLower returns
	// without allocating; only a hand-built call pays for the lowering.
	switch strings.ToLower(x.Name) {
	case "bound":
		switch v := x.Args[0].(type) {
		case ExVar:
			return boolTerm(ctx.row[v.Name].IsBound()), nil
		}
		return rdf.Term{}, errExpr
	case "str":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(t.Value), nil
	case "lang":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		if t.Kind != rdf.LiteralKind {
			return rdf.Term{}, errExpr
		}
		return rdf.NewLiteral(t.Lang), nil
	case "datatype":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		if t.Kind != rdf.LiteralKind {
			return rdf.Term{}, errExpr
		}
		dt := t.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "isiri", "isuri":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsIRI()), nil
	case "isliteral":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsLiteral()), nil
	case "isblank":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsBlank()), nil
	case "isnumeric":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsNumeric()), nil
	case "regex":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		pt, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		flags := ""
		if len(x.Args) > 2 {
			ft, err := arg(2)
			if err != nil {
				return rdf.Term{}, err
			}
			flags = ft.Value
		}
		if t.Kind != rdf.LiteralKind {
			return rdf.Term{}, errExpr
		}
		if ctx.cache == nil {
			ctx.cache = &regexCache{}
		}
		re, err := ctx.cache.get(pt.Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(re.MatchString(t.Value)), nil
	case "strstarts":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.HasPrefix(a.Value, b.Value)), nil
	case "strends":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.HasSuffix(a.Value, b.Value)), nil
	case "contains":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(strings.Contains(a.Value, b.Value)), nil
	case "strlen":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewInteger(int64(len([]rune(a.Value)))), nil
	case "lcase":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(strings.ToLower(a.Value)), nil
	case "ucase":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(strings.ToUpper(a.Value)), nil
	case "abs":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		f, ok := a.AsFloat()
		if !ok {
			return rdf.Term{}, errExpr
		}
		if f < 0 {
			f = -f
		}
		return refNumericTerm(f, a), nil
	case "year":
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		y, ok := a.Year()
		if !ok {
			return rdf.Term{}, errExpr
		}
		return rdf.NewInteger(int64(y)), nil
	}
	return refCast(x, arg)
}

// refCast answers a call of a function IRI: the XSD constructor casts,
// e.g. xsd:dateTime(?d), xsd:integer(?x). Any other name is unknown.
func refCast(x ExCall, arg func(int) (rdf.Term, error)) (rdf.Term, error) {
	if strings.HasPrefix(x.Name, "http://www.w3.org/2001/XMLSchema#") {
		a, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		if a.Kind != rdf.LiteralKind {
			return rdf.Term{}, errExpr
		}
		return rdf.NewTypedLiteral(a.Value, x.Name), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown function %q", x.Name)
}
