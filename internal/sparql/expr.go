package sparql

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

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
	case ExTerm:
		// A numeric constant that a computed number stands for is that
		// number, parsed here once rather than on every row.
		if f, ok := x.Term.AsFloat(); ok && x.Term.IsNumeric() {
			if n := numberLike(f, termValue(x.Term)); n.term() == x.Term {
				return n
			}
		}
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
	values   []value    // evalAggregate's scratch, reused across groups
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

// value is what an expression evaluates to: a term, or a number the
// expression computed, held as its float64 and its datatype, xsd:integer
// or xsd:decimal. A number stands for the term value.term writes for it:
// every reader answers as it would over that term, and the term is built
// only where the value leaves the expression (a BIND, a projection, an
// ORDER BY key, an aggregate's output, EvalExpression). A value is also a
// resolved node: a numeric constant that resolve parsed.
type value struct {
	t  rdf.Term // the term, when dt is ""
	f  float64  // the number, when dt is set
	dt string   // the number's datatype; "" for a term
}

func (value) isExpr() {}

func termValue(t rdf.Term) value { return value{t: t} }

func intValue(n int64) value { return value{f: float64(n), dt: rdf.XSDInteger} }

func decimalValue(f float64) value { return value{f: f, dt: rdf.XSDDecimal} }

// numberLike is a computed number f: an xsd:integer when f is integral and
// every operand is an xsd:integer, an xsd:decimal otherwise. An integer
// holds float64(int64(f)), the value its term reads back as, so -0 is 0.
func numberLike(f float64, operands ...value) value {
	for _, o := range operands {
		if o.datatype() != rdf.XSDInteger {
			return decimalValue(f)
		}
	}
	if f != float64(int64(f)) {
		return decimalValue(f)
	}
	return intValue(int64(f))
}

func (v value) datatype() string {
	if v.dt != "" {
		return v.dt
	}
	return v.t.Datatype
}

func (v value) isNumeric() bool { return v.dt != "" || v.t.IsNumeric() }

// term is the value as a term; a number's lexical form is the shortest
// that reads back as it. Writing it is kept apart (format) so that term
// inlines at the readers of terms.
func (v value) term() rdf.Term {
	if v.dt == "" {
		return v.t
	}
	return v.format()
}

// format writes a number's term.
func (v value) format() rdf.Term {
	if v.dt == rdf.XSDInteger {
		return rdf.NewInteger(int64(v.f))
	}
	return rdf.NewDecimal(v.f)
}

// float is rdf.Term.AsFloat of the value's term: a NaN has no value.
func (v value) float() (float64, bool) {
	if v.dt == "" {
		return v.t.AsFloat()
	}
	return v.f, !math.IsNaN(v.f)
}

// numeric is numericValue of the value's term. A computed NaN is an
// xsd:decimal, so it has no value here either.
func (v value) numeric() (float64, bool) {
	if v.dt == "" {
		return numericValue(v.t)
	}
	return v.float()
}

// evalExpr evaluates e in ctx, returning a value or errExpr.
func evalExpr(e Expression, ctx *evalCtx) (value, error) {
	switch x := e.(type) {
	case value:
		return x, nil
	case ExTerm:
		return termValue(x.Term), nil
	case ExVar:
		t := ctx.row[x.Name]
		if !t.IsBound() {
			return value{}, errExpr
		}
		return termValue(t), nil
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
			return value{}, errExpr
		}
		return termValue(ctx.dict.decode(id)), nil
	case exIDEqual, exIDIn, exIDKind:
		return boolValue(evalCond(x, ctx))
	case ExAgg:
		if ctx.groupSrc == nil {
			return value{}, fmt.Errorf("sparql: aggregate outside of group context")
		}
		return evalAggregate(x, ctx)
	}
	return value{}, fmt.Errorf("sparql: unknown expression %T", e)
}

// ebv computes the SPARQL effective boolean value of a value.
func ebv(v value) (bool, error) {
	if v.isNumeric() {
		f, ok := v.float()
		if !ok {
			return false, errExpr
		}
		return f != 0, nil
	}
	t := v.t
	switch {
	case t.Kind != rdf.LiteralKind:
	case t.Datatype == rdf.XSDBoolean:
		if b, ok := t.AsBool(); ok {
			return b, nil
		}
	case t.Datatype == "":
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
// tests, the comparisons and the logical operators answer without building
// a boolean term; every other expression goes through evalExpr and ebv.
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
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			return evalComparison(x, ctx)
		case "&&", "||":
		default:
			return ebvOf(evalBinary(x, ctx))
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
	return ebvOf(evalExpr(e, ctx))
}

func ebvOf(v value, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return ebv(v)
}

func boolTerm(b bool) rdf.Term { return rdf.NewBoolean(b) }

// boolValue is a condition's answer as a value.
func boolValue(b bool, err error) (value, error) {
	if err != nil {
		return value{}, err
	}
	return termValue(boolTerm(b)), nil
}

func evalUnary(x ExUnary, ctx *evalCtx) (value, error) {
	if x.Op == "!" {
		return boolValue(evalCond(x, ctx))
	}
	v, err := evalExpr(x.E, ctx)
	if err != nil {
		return value{}, err
	}
	if x.Op == "-" {
		f, ok := v.float()
		if !ok {
			return value{}, errExpr
		}
		return numberLike(-f, v), nil
	}
	return value{}, fmt.Errorf("sparql: unknown unary op %q", x.Op)
}

func evalBinary(x ExBinary, ctx *evalCtx) (value, error) {
	switch x.Op {
	case "&&", "||", "=", "!=", "<", "<=", ">", ">=":
		return boolValue(evalCond(x, ctx))
	case "+", "-", "*", "/":
	default:
		return value{}, fmt.Errorf("sparql: unknown binary op %q", x.Op)
	}
	l, err := evalExpr(x.L, ctx)
	if err != nil {
		return value{}, err
	}
	r, err := evalExpr(x.R, ctx)
	if err != nil {
		return value{}, err
	}
	lf, lok := l.float()
	rf, rok := r.float()
	if !lok || !rok {
		return value{}, errExpr
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
			return value{}, errExpr
		}
		f = lf / rf
	}
	return numberLike(f, l, r), nil
}

// evalComparison answers = != < <= > >=; an ordering comparison with a NaN
// is false.
func evalComparison(x ExBinary, ctx *evalCtx) (bool, error) {
	l, err := evalExpr(x.L, ctx)
	if err != nil {
		return false, err
	}
	r, err := evalExpr(x.R, ctx)
	if err != nil {
		return false, err
	}
	if x.Op == "=" || x.Op == "!=" {
		eq, err := termsEqual(l, r)
		return eq != (x.Op == "!="), err
	}
	c, err := termsCompare(l, r)
	if err == errUnordered {
		return false, nil
	}
	switch x.Op {
	case "<":
		return c < 0, err
	case "<=":
		return c <= 0, err
	case ">":
		return c > 0, err
	}
	return c >= 0, err
}

// termsEqual implements SPARQL RDFterm-equal plus numeric value equality.
// A NaN is equal to nothing, itself included; an ill-typed numeric literal
// ("abc"^^xsd:integer) has no value, so it equals only the same term and
// comparing it with anything else is a type error.
func termsEqual(l, r value) (bool, error) {
	if l.isNumeric() && r.isNumeric() {
		lf, lok := l.numeric()
		rf, rok := r.numeric()
		if !lok || !rok {
			if l.term() == r.term() {
				return true, nil
			}
			return false, errExpr
		}
		return lf == rf, nil
	}
	// A number never equals a term that is not numeric.
	return l.dt == "" && r.dt == "" && l.t == r.t, nil
}

// errUnordered is termsCompare's answer for a NaN: every ordering
// comparison with it is false.
var errUnordered = fmt.Errorf("sparql: NaN is unordered")

// termsCompare implements SPARQL operator comparison: numeric by value,
// strings lexically, dates lexically (ISO forms order correctly). An
// ill-typed numeric operand is a type error.
func termsCompare(l, r value) (int, error) {
	if l.isNumeric() && r.isNumeric() {
		lf, lok := l.numeric()
		rf, rok := r.numeric()
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
	// A number beside a term that is not numeric compares its lexical form.
	lt, rt := l.term(), r.term()
	if lt.Kind == rdf.LiteralKind && rt.Kind == rdf.LiteralKind {
		return strings.Compare(lt.Value, rt.Value), nil
	}
	if lt.Kind == rdf.IRIKind && rt.Kind == rdf.IRIKind {
		return strings.Compare(lt.Value, rt.Value), nil
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

func evalIn(x ExIn, ctx *evalCtx) (value, error) {
	v, err := evalExpr(x.E, ctx)
	if err != nil {
		return value{}, err
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
	return boolValue(found != x.Neg, nil)
}

// evalCall answers a builtin or a cast. The numeric builtins compute
// numbers; the others read their arguments as terms.
func evalCall(x ExCall, ctx *evalCtx) (value, error) {
	if x.IRI {
		return termOf(evalCast(x, ctx))
	}
	// A parsed builtin name is lowercase already, which ToLower returns
	// without allocating; only a hand-built call pays for the lowering.
	switch name := strings.ToLower(x.Name); name {
	case "abs":
		a, err := callArg(x.Args, 0, ctx)
		if err != nil {
			return value{}, err
		}
		f, ok := a.float()
		if !ok {
			return value{}, errExpr
		}
		if f < 0 {
			f = -f
		}
		return numberLike(f, a), nil
	case "year":
		a, err := callArg(x.Args, 0, ctx)
		if err != nil {
			return value{}, err
		}
		y, ok := a.term().Year()
		if !ok {
			return value{}, errExpr
		}
		return intValue(int64(y)), nil
	case "strlen":
		a, err := callArg(x.Args, 0, ctx)
		if err != nil {
			return value{}, err
		}
		return intValue(int64(utf8.RuneCountInString(a.term().Value))), nil
	default:
		return termOf(evalTermCall(x, name, ctx))
	}
}

// callArg evaluates argument i of a call; a missing one is an error.
func callArg(args []Expression, i int, ctx *evalCtx) (value, error) {
	if i < len(args) {
		return evalExpr(args[i], ctx)
	}
	return value{}, errExpr
}

func termOf(t rdf.Term, err error) (value, error) { return termValue(t), err }

// evalTermCall answers the builtins whose result is a term.
func evalTermCall(x ExCall, name string, ctx *evalCtx) (rdf.Term, error) {
	arg := func(i int) (rdf.Term, error) {
		v, err := callArg(x.Args, i, ctx)
		return v.term(), err
	}
	switch name {
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
		v, err := callArg(x.Args, 0, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(v.isNumeric()), nil
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
	}
	return evalCast(x, ctx)
}

// evalCast answers a call of a function IRI: the XSD constructor casts,
// e.g. xsd:dateTime(?d), xsd:integer(?x). Any other name is unknown.
func evalCast(x ExCall, ctx *evalCtx) (rdf.Term, error) {
	if strings.HasPrefix(x.Name, "http://www.w3.org/2001/XMLSchema#") {
		v, err := callArg(x.Args, 0, ctx)
		if err != nil {
			return rdf.Term{}, err
		}
		a := v.term()
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
func aggregateVar(x ExAgg, c exCell, ctx *evalCtx) (value, error) {
	ids, g := ctx.ids[:0], ctx.groupSrc
	rows := g.cursor(0)
	for i := 0; i < g.n; i++ {
		id := c.get(rows.next())
		if id == 0 {
			continue
		}
		if x.Fn == "sample" {
			return termValue(ctx.dict.decode(id)), nil
		}
		ids = append(ids, id)
	}
	if x.Fn == "sample" {
		return value{}, errExpr
	}
	ctx.ids = ids
	if x.Distinct {
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	return intValue(int64(len(ids))), nil
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
// group in scope: an aggregate nested in it is an error. COUNT, SUM and
// AVG answer numbers; MIN, MAX and SAMPLE compare and answer terms.
func evalAggregate(x ExAgg, ctx *evalCtx) (value, error) {
	if x.Star {
		return intValue(int64(countRows(x.Distinct, ctx.groupSrc))), nil
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
			if t := v.term(); !seen[t] {
				seen[t] = true
				uniq = append(uniq, v)
			}
		}
		values = uniq
	}
	switch x.Fn {
	case "count":
		return intValue(int64(len(values))), nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		for _, v := range values {
			f, ok := v.float()
			if !ok {
				return value{}, errExpr
			}
			if v.datatype() != rdf.XSDInteger {
				allInt = false
			}
			sum += f
		}
		if x.Fn == "avg" {
			if len(values) == 0 {
				return intValue(0), nil
			}
			return decimalValue(sum / float64(len(values))), nil
		}
		if allInt {
			return intValue(int64(sum)), nil
		}
		return decimalValue(sum), nil
	case "min", "max":
		if len(values) == 0 {
			return value{}, errExpr
		}
		best := values[0].term()
		for _, v := range values[1:] {
			t := v.term()
			c := rdf.Compare(t, best)
			if x.Fn == "min" && c < 0 || x.Fn == "max" && c > 0 {
				best = t
			}
		}
		return termValue(best), nil
	case "sample":
		if len(values) == 0 {
			return value{}, errExpr
		}
		return values[0], nil
	}
	return value{}, fmt.Errorf("sparql: unknown aggregate %q", x.Fn)
}
