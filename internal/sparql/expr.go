package sparql

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Expression is a SPARQL expression tree node.
type Expression interface{ isExpr() }

// ExVar references a variable.
type ExVar struct{ Name string }

// ExTerm is a constant term (IRI, literal, number, boolean).
type ExTerm struct{ Term rdf.Term }

// ExBinary applies a binary operator: || && = != < <= > >= + - * /.
type ExBinary struct {
	Op   string
	L, R Expression
}

// ExUnary applies a unary operator: ! or -.
type ExUnary struct {
	Op string
	E  Expression
}

// ExCall is a built-in function call or a call of a function IRI (an XSD
// cast). The parser decides which, once: a builtin's Name is its lowercase
// name ("regex", "str", "isiri", ...), an IRI call's Name is the full IRI
// and IRI is set, so it never runs as a builtin whatever its spelling.
type ExCall struct {
	Name string
	Args []Expression
	IRI  bool
}

// ExIn is "expr IN (list)" or "expr NOT IN (list)".
type ExIn struct {
	E    Expression
	List []Expression
	Neg  bool
}

// ExAgg is an aggregate: COUNT/SUM/AVG/MIN/MAX/SAMPLE, optionally DISTINCT,
// over an expression or * (COUNT only).
type ExAgg struct {
	Fn       string // lowercase
	Distinct bool
	Star     bool
	Arg      Expression // nil when Star
}

func (ExVar) isExpr()    {}
func (ExTerm) isExpr()   {}
func (ExBinary) isExpr() {}
func (ExUnary) isExpr()  {}
func (ExCall) isExpr()   {}
func (ExIn) isExpr()     {}
func (ExAgg) isExpr()    {}

func containsAggregate(e Expression) bool {
	switch x := e.(type) {
	case ExAgg:
		return true
	case ExBinary:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case ExUnary:
		return containsAggregate(x.E)
	case ExCall:
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case ExIn:
		if containsAggregate(x.E) {
			return true
		}
		for _, a := range x.List {
			if containsAggregate(a) {
				return true
			}
		}
	}
	return false
}

// errExpr represents a SPARQL expression evaluation error ("type error").
// Filters drop solutions whose condition errors; Extend leaves the variable
// unbound.
var errExpr = fmt.Errorf("sparql: expression error")

// Resolved expressions. Every expression the engine evaluates (FILTER,
// BIND, computed projections, ORDER BY keys, HAVING and aggregate
// arguments) is resolved once against the row layout it runs on
// (evalDict.resolve): a variable becomes a column read, and =, !=, IN/NOT
// IN and isIRI/isBlank/isLiteral over variables and constants become tests
// on ids, which decode a term only when value semantics need it. evalExpr
// and evalCond evaluate these nodes like any other, reading the row from
// ctx.cells.

// exCell reads column col of the row, or, when col < 0, the fixed id: a
// constant, or 0 for a variable the layout lacks, which reads as unbound.
type exCell struct {
	col int
	id  store.ID
}

// exIDEqual is "l = r", or "l != r" when neg.
type exIDEqual struct {
	l, r exCell
	neg  bool
}

// exIDIn is "e IN (list)", or NOT IN when neg.
type exIDIn struct {
	e    exCell
	list []exCell
	neg  bool
}

// exIDKind is isIRI, isBlank or isLiteral of e.
type exIDKind struct {
	e    exCell
	kind rdf.TermKind
}

func (exCell) isExpr()    {}
func (exIDEqual) isExpr() {}
func (exIDIn) isExpr()    {}
func (exIDKind) isExpr()  {}

func (c exCell) get(cells []store.ID) store.ID {
	if c.col >= 0 {
		return cells[c.col]
	}
	return c.id
}

var kindTests = map[string]rdf.TermKind{"isiri": rdf.IRIKind, "isuri": rdf.IRIKind, "isblank": rdf.BlankKind, "isliteral": rdf.LiteralKind}

// resolve returns e resolved against the row layout cols, its constants
// encoded through d. Encoding may intern, so resolve runs on the query
// goroutine, before the workers that evaluate the result start.
func (d *evalDict) resolve(e Expression, cols map[string]int) Expression {
	cell := func(e Expression) (exCell, bool) {
		switch x := e.(type) {
		case ExVar:
			if c, ok := cols[x.Name]; ok {
				return exCell{col: c}, true
			}
			return exCell{col: -1}, true
		case ExTerm:
			return exCell{col: -1, id: d.encode(x.Term)}, true
		}
		return exCell{}, false
	}
	all := func(es []Expression) []Expression {
		out := make([]Expression, len(es))
		for i, a := range es {
			out[i] = d.resolve(a, cols)
		}
		return out
	}
	switch x := e.(type) {
	case ExVar:
		c, _ := cell(x)
		return c
	case ExBinary:
		if x.Op == "=" || x.Op == "!=" {
			l, lok := cell(x.L)
			r, rok := cell(x.R)
			if lok && rok {
				return exIDEqual{l: l, r: r, neg: x.Op == "!="}
			}
		}
		return ExBinary{Op: x.Op, L: d.resolve(x.L, cols), R: d.resolve(x.R, cols)}
	case ExUnary:
		return ExUnary{Op: x.Op, E: d.resolve(x.E, cols)}
	case ExIn:
		e, ok := cell(x.E)
		in := exIDIn{e: e, neg: x.Neg}
		for _, it := range x.List {
			c, cok := cell(it)
			in.list, ok = append(in.list, c), ok && cok
		}
		if ok {
			return in
		}
		return ExIn{E: d.resolve(x.E, cols), List: all(x.List), Neg: x.Neg}
	case ExCall:
		if kind, ok := kindTests[strings.ToLower(x.Name)]; ok && !x.IRI && len(x.Args) == 1 {
			if c, ok := cell(x.Args[0]); ok {
				return exIDKind{e: c, kind: kind}
			}
		}
		x.Args = all(x.Args)
		return x
	case ExAgg:
		if x.Arg != nil {
			x.Arg = d.resolve(x.Arg, cols)
		}
		return x
	}
	return e
}

// evalCtx carries the evaluation context for expressions: the row a
// resolved expression reads (cells) or, for the exported expression API,
// a Binding map (row), and, when evaluating HAVING or aggregate
// projections, the group: a header over the run of the sorted input that
// holds it.
type evalCtx struct {
	row      Binding    // set only by EvalExpression and EvalCondition
	cells    []store.ID // the row a resolved expression reads (see resolve)
	groupSrc *idRows    // non-nil when aggregates are in scope
	dict     *evalDict
	cache    *regexCache
	ids      []store.ID // aggregateVar's scratch, reused across groups
	values   []rdf.Term // evalAggregate's scratch, reused across groups
}

// regexCache memoizes compiled patterns by (pattern, flags). It is not
// synchronized: the query goroutine and every pipeline worker own one each.
type regexCache struct {
	m map[[2]string]*regexp.Regexp
}

func (rc *regexCache) get(pattern, flags string) (*regexp.Regexp, error) {
	key := [2]string{pattern, flags}
	if re, ok := rc.m[key]; ok {
		return re, nil
	}
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, errExpr
	}
	if rc.m == nil {
		rc.m = make(map[[2]string]*regexp.Regexp)
	}
	rc.m[key] = re
	return re, nil
}

// evalExpr evaluates e in ctx, returning a term or errExpr.
func evalExpr(e Expression, ctx *evalCtx) (rdf.Term, error) {
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
		return evalUnary(x, ctx)
	case ExBinary:
		return evalBinary(x, ctx)
	case ExCall:
		return evalCall(x, ctx)
	case ExIn:
		return evalIn(x, ctx)
	case exCell:
		id := x.get(ctx.cells)
		if id == 0 {
			return rdf.Term{}, errExpr
		}
		return ctx.dict.decode(id), nil
	case exIDEqual, exIDIn, exIDKind:
		b, err := evalCond(x, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(b), nil
	case ExAgg:
		if ctx.groupSrc == nil {
			return rdf.Term{}, fmt.Errorf("sparql: aggregate outside of group context")
		}
		return evalAggregate(x, ctx)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown expression %T", e)
}

// ebv computes the SPARQL effective boolean value of a term.
func ebv(t rdf.Term) (bool, error) {
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

// evalBool evaluates a boolean condition; an expression error is false.
func evalBool(e Expression, ctx *evalCtx) bool {
	b, err := evalCond(e, ctx)
	return err == nil && b
}

// evalCond returns the effective boolean value of e, or errExpr. The id
// tests and the logical operators answer without building a boolean term;
// every other expression goes through evalExpr and ebv.
func evalCond(e Expression, ctx *evalCtx) (bool, error) {
	switch x := e.(type) {
	case exIDEqual:
		eq, err := ctx.dict.idsEqual(x.l.get(ctx.cells), x.r.get(ctx.cells))
		return eq != x.neg, err
	case exIDIn:
		v := x.e.get(ctx.cells)
		if v == 0 {
			return false, errExpr
		}
		found := false
		for _, it := range x.list {
			if eq, err := ctx.dict.idsEqual(v, it.get(ctx.cells)); err == nil && eq {
				found = true
				break
			}
		}
		return found != x.neg, nil
	case exIDKind:
		id := x.e.get(ctx.cells)
		if id == 0 {
			return false, errExpr
		}
		return ctx.dict.typeOf(id).Kind == x.kind, nil
	case ExUnary:
		if x.Op == "!" {
			b, err := evalCond(x.E, ctx)
			return !b, err
		}
	case ExBinary:
		if x.Op != "&&" && x.Op != "||" {
			break
		}
		// SPARQL logic: true || error is true and false && error is false;
		// otherwise an error operand makes the result an error.
		l, lerr := evalCond(x.L, ctx)
		r, rerr := evalCond(x.R, ctx)
		decided := x.Op == "||"
		if lerr == nil && l == decided || rerr == nil && r == decided {
			return decided, nil
		}
		if lerr != nil || rerr != nil {
			return false, errExpr
		}
		return !decided, nil
	}
	t, err := evalExpr(e, ctx)
	if err != nil {
		return false, err
	}
	return ebv(t)
}

func boolTerm(b bool) rdf.Term { return rdf.NewBoolean(b) }

func evalUnary(x ExUnary, ctx *evalCtx) (rdf.Term, error) {
	if x.Op == "!" {
		b, err := evalCond(x, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(b), nil
	}
	v, err := evalExpr(x.E, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	if x.Op == "-" {
		f, ok := v.AsFloat()
		if !ok {
			return rdf.Term{}, errExpr
		}
		return numericTerm(-f, v), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown unary op %q", x.Op)
}

// numericTerm builds a numeric result term, preserving integer typing when
// both the value and the operand datatype allow it.
func numericTerm(f float64, like ...rdf.Term) rdf.Term {
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

func evalBinary(x ExBinary, ctx *evalCtx) (rdf.Term, error) {
	if x.Op == "&&" || x.Op == "||" {
		b, err := evalCond(x, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(b), nil
	}
	l, err := evalExpr(x.L, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := evalExpr(x.R, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return boolTerm(eq), nil
	case "<", "<=", ">", ">=":
		c, err := termsCompare(l, r)
		if err == errUnordered {
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
		return numericTerm(f, l, r), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown binary op %q", x.Op)
}

// termsEqual implements SPARQL RDFterm-equal plus numeric value equality.
// A NaN is equal to nothing, itself included; an ill-typed numeric literal
// ("abc"^^xsd:integer) has no value, so it equals only the same term and
// comparing it with anything else is a type error.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := numericValue(l)
		rf, rok := numericValue(r)
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

// errUnordered is termsCompare's answer for a NaN: every ordering
// comparison with it is false.
var errUnordered = fmt.Errorf("sparql: NaN is unordered")

// termsCompare implements SPARQL operator comparison: numeric by value,
// strings lexically, dates lexically (ISO forms order correctly). An
// ill-typed numeric operand is a type error.
func termsCompare(l, r rdf.Term) (int, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := numericValue(l)
		rf, rok := numericValue(r)
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
		return 0, errUnordered
	}
	if l.Kind == rdf.LiteralKind && r.Kind == rdf.LiteralKind {
		return strings.Compare(l.Value, r.Value), nil
	}
	if l.Kind == rdf.IRIKind && r.Kind == rdf.IRIKind {
		return strings.Compare(l.Value, r.Value), nil
	}
	return 0, errExpr
}

// numericValue returns the value of a numeric literal, and false when its
// lexical form is ill-typed. "NaN"^^xsd:double is well-typed: its value is
// NaN, which rdf.Term.AsFloat refuses.
func numericValue(t rdf.Term) (float64, bool) {
	if f, ok := t.AsFloat(); ok {
		return f, true
	}
	if t.Datatype != rdf.XSDDouble {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return f, err == nil
}

func evalIn(x ExIn, ctx *evalCtx) (rdf.Term, error) {
	v, err := evalExpr(x.E, ctx)
	if err != nil {
		return rdf.Term{}, err
	}
	found := false
	for _, item := range x.List {
		it, err := evalExpr(item, ctx)
		if err != nil {
			continue
		}
		eq, err := termsEqual(v, it)
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

func evalCall(x ExCall, ctx *evalCtx) (rdf.Term, error) {
	arg := func(i int) (rdf.Term, error) {
		if i >= len(x.Args) {
			return rdf.Term{}, errExpr
		}
		return evalExpr(x.Args[i], ctx)
	}
	if x.IRI {
		return evalCast(x, arg)
	}
	// A parsed builtin name is lowercase already, which ToLower returns
	// without allocating; only a hand-built call pays for the lowering.
	switch strings.ToLower(x.Name) {
	case "bound":
		switch v := x.Args[0].(type) {
		case exCell:
			return boolTerm(v.get(ctx.cells) != 0), nil
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
		return numericTerm(f, a), nil
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
	return evalCast(x, arg)
}

// evalCast answers a call of a function IRI: the XSD constructor casts,
// e.g. xsd:dateTime(?d), xsd:integer(?x). Any other name is unknown.
func evalCast(x ExCall, arg func(int) (rdf.Term, error)) (rdf.Term, error) {
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

// aggregateVar answers COUNT and SAMPLE of a bare variable, resolved to a
// cell, over the group without decoding the group: id equality is term
// equality (the evalDict.encode contract), so bound cells are the non-zero
// ids and DISTINCT counts distinct ids.
func aggregateVar(x ExAgg, c exCell, ctx *evalCtx) (rdf.Term, error) {
	ids, g := ctx.ids[:0], ctx.groupSrc
	rows := g.cursor(0)
	for i := 0; i < g.n; i++ {
		id := c.get(rows.next())
		if id == 0 {
			continue
		}
		if x.Fn == "sample" {
			return ctx.dict.decode(id), nil
		}
		ids = append(ids, id)
	}
	if x.Fn == "sample" {
		return rdf.Term{}, errExpr
	}
	ctx.ids = ids
	if x.Distinct {
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	return rdf.NewInteger(int64(len(ids))), nil
}

// countRows answers COUNT(*), the group's rows, and COUNT(DISTINCT *), its
// distinct solutions. aggregate sorts the input of a COUNT(DISTINCT *) on
// every column, so a group's equal rows are adjacent.
func countRows(distinct bool, g *idRows) (n int) {
	if !distinct {
		return g.n
	}
	rows, prev := g.cursor(0), []store.ID(nil)
	for i := 0; i < g.n; i++ {
		if row := rows.next(); i == 0 || !slices.Equal(row, prev) {
			n, prev = n+1, row
		}
	}
	return n
}

// evalAggregate computes an aggregate over the context's group. The
// argument reads each of the group's rows in turn from ctx.cells, with no
// group in scope: an aggregate nested in it is an error.
func evalAggregate(x ExAgg, ctx *evalCtx) (rdf.Term, error) {
	if x.Star {
		return rdf.NewInteger(int64(countRows(x.Distinct, ctx.groupSrc))), nil
	}
	if c, ok := x.Arg.(exCell); ok && (x.Fn == "count" || x.Fn == "sample") {
		return aggregateVar(x, c, ctx)
	}
	cells, g, values := ctx.cells, ctx.groupSrc, ctx.values[:0]
	ctx.groupSrc = nil
	rows := g.cursor(0)
	for i := 0; i < g.n; i++ {
		ctx.cells = rows.next()
		if v, err := evalExpr(x.Arg, ctx); err == nil { // aggregates skip error values
			values = append(values, v)
		}
	}
	ctx.cells, ctx.groupSrc, ctx.values = cells, g, values
	if x.Distinct {
		seen := map[rdf.Term]bool{}
		uniq := values[:0]
		for _, v := range values {
			if !seen[v] {
				seen[v] = true
				uniq = append(uniq, v)
			}
		}
		values = uniq
	}
	switch x.Fn {
	case "count":
		return rdf.NewInteger(int64(len(values))), nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		for _, v := range values {
			f, ok := v.AsFloat()
			if !ok {
				return rdf.Term{}, errExpr
			}
			if v.Datatype != rdf.XSDInteger {
				allInt = false
			}
			sum += f
		}
		if x.Fn == "avg" {
			if len(values) == 0 {
				return rdf.NewInteger(0), nil
			}
			return rdf.NewDecimal(sum / float64(len(values))), nil
		}
		if allInt {
			return rdf.NewInteger(int64(sum)), nil
		}
		return rdf.NewDecimal(sum), nil
	case "min", "max":
		if len(values) == 0 {
			return rdf.Term{}, errExpr
		}
		best := values[0]
		for _, v := range values[1:] {
			c := rdf.Compare(v, best)
			if x.Fn == "min" && c < 0 || x.Fn == "max" && c > 0 {
				best = v
			}
		}
		return best, nil
	case "sample":
		if len(values) == 0 {
			return rdf.Term{}, errExpr
		}
		return values[0], nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %q", x.Fn)
}
