package sparql

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func evalInCtx(t *testing.T, e Expression, row Binding) (rdf.Term, error) {
	t.Helper()
	v, err := evalExpr(e, &evalCtx{row: row, cache: &regexCache{}})
	return v.term(), err
}

func TestEBV(t *testing.T) {
	cases := []struct {
		t    rdf.Term
		want bool
		err  bool
	}{
		{rdf.NewBoolean(true), true, false},
		{rdf.NewBoolean(false), false, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(3), true, false},
		{rdf.NewLiteral(""), false, false},
		{rdf.NewLiteral("x"), true, false},
		{rdf.NewIRI("http://x"), false, true},
		{rdf.NewTypedLiteral("2020-01-01", rdf.XSDDate), false, true},
	}
	for _, c := range cases {
		got, err := ebv(termValue(c.t))
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ebv(%v) = %v, %v; want %v, err=%v", c.t, got, err, c.want, c.err)
		}
	}
}

func TestNumericComparisonAcrossTypes(t *testing.T) {
	e := ExBinary{Op: "<", L: ExTerm{rdf.NewInteger(9)}, R: ExTerm{rdf.NewDecimal(9.5)}}
	v, err := evalInCtx(t, e, Binding{})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); !b {
		t.Fatal("9 < 9.5 should be true")
	}
}

func TestLogicalOrWithErrorOperand(t *testing.T) {
	// true || error = true per SPARQL.
	e := ExBinary{Op: "||", L: ExTerm{rdf.NewBoolean(true)}, R: ExVar{Name: "missing"}}
	v, err := evalInCtx(t, e, Binding{})
	if err != nil {
		t.Fatalf("true || error must not error: %v", err)
	}
	if b, _ := v.AsBool(); !b {
		t.Fatal("want true")
	}
	// false || error = error.
	e = ExBinary{Op: "||", L: ExTerm{rdf.NewBoolean(false)}, R: ExVar{Name: "missing"}}
	if _, err := evalInCtx(t, e, Binding{}); err == nil {
		t.Fatal("false || error must error")
	}
}

func TestLogicalAndWithErrorOperand(t *testing.T) {
	// false && error = false per SPARQL.
	e := ExBinary{Op: "&&", L: ExTerm{rdf.NewBoolean(false)}, R: ExVar{Name: "missing"}}
	v, err := evalInCtx(t, e, Binding{})
	if err != nil {
		t.Fatalf("false && error must not error: %v", err)
	}
	if b, _ := v.AsBool(); b {
		t.Fatal("want false")
	}
}

func TestArithmetic(t *testing.T) {
	e := ExBinary{Op: "+",
		L: ExBinary{Op: "*", L: ExTerm{rdf.NewInteger(3)}, R: ExTerm{rdf.NewInteger(4)}},
		R: ExTerm{rdf.NewInteger(1)}}
	v, err := evalInCtx(t, e, Binding{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 13 {
		t.Fatalf("3*4+1 = %v", v)
	}
	if v.Datatype != rdf.XSDInteger {
		t.Fatalf("integer arithmetic should stay integer: %v", v)
	}
	div := ExBinary{Op: "/", L: ExTerm{rdf.NewInteger(1)}, R: ExTerm{rdf.NewInteger(0)}}
	if _, err := evalInCtx(t, div, Binding{}); err == nil {
		t.Fatal("division by zero must error")
	}
}

func TestInExpression(t *testing.T) {
	in := ExIn{
		E: ExVar{Name: "c"},
		List: []Expression{
			ExTerm{rdf.NewIRI("http://c/vldb")},
			ExTerm{rdf.NewIRI("http://c/sigmod")},
		},
	}
	row := Binding{"c": rdf.NewIRI("http://c/vldb")}
	v, err := evalInCtx(t, in, row)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); !b {
		t.Fatal("IN should match")
	}
	in.Neg = true
	v, _ = evalInCtx(t, in, row)
	if b, _ := v.AsBool(); b {
		t.Fatal("NOT IN should not match")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	row := Binding{
		"iri": rdf.NewIRI("http://ex/thing"),
		"lit": rdf.NewLangLiteral("Hello", "en"),
		"num": rdf.NewInteger(-5),
	}
	cases := []struct {
		expr Expression
		want string
	}{
		{ExCall{Name: "str", Args: []Expression{ExVar{"iri"}}}, `"http://ex/thing"`},
		{ExCall{Name: "lang", Args: []Expression{ExVar{"lit"}}}, `"en"`},
		{ExCall{Name: "ucase", Args: []Expression{ExVar{"lit"}}}, `"HELLO"`},
		{ExCall{Name: "lcase", Args: []Expression{ExVar{"lit"}}}, `"hello"`},
		{ExCall{Name: "strlen", Args: []Expression{ExVar{"lit"}}}, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{ExCall{Name: "abs", Args: []Expression{ExVar{"num"}}}, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{ExCall{Name: "isuri", Args: []Expression{ExVar{"iri"}}}, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{ExCall{Name: "isliteral", Args: []Expression{ExVar{"iri"}}}, `"false"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{ExCall{Name: "datatype", Args: []Expression{ExVar{"num"}}}, "<" + rdf.XSDInteger + ">"},
	}
	for _, c := range cases {
		v, err := evalInCtx(t, c.expr, row)
		if err != nil {
			t.Errorf("%+v: %v", c.expr, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("%+v = %s, want %s", c.expr, v, c.want)
		}
	}
}

func TestBoundFunction(t *testing.T) {
	row := Binding{"x": rdf.NewInteger(1)}
	v, _ := evalInCtx(t, ExCall{Name: "bound", Args: []Expression{ExVar{"x"}}}, row)
	if b, _ := v.AsBool(); !b {
		t.Fatal("bound(?x) should be true")
	}
	v, _ = evalInCtx(t, ExCall{Name: "bound", Args: []Expression{ExVar{"y"}}}, row)
	if b, _ := v.AsBool(); b {
		t.Fatal("bound(?y) should be false")
	}
}

func TestYearOfDateTimeCast(t *testing.T) {
	// year(xsd:dateTime(?d)) — the paper's DBLP filter.
	row := Binding{"d": rdf.NewTypedLiteral("2012-06-01", rdf.XSDDate)}
	e := ExCall{Name: "year", Args: []Expression{
		ExCall{Name: rdf.XSDDateTime, Args: []Expression{ExVar{"d"}}},
	}}
	v, err := evalInCtx(t, e, row)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 2012 {
		t.Fatalf("year = %v", v)
	}
}

func TestRegexCaseInsensitiveFlag(t *testing.T) {
	row := Binding{"s": rdf.NewLiteral("Hello World")}
	e := ExCall{Name: "regex", Args: []Expression{
		ExVar{"s"}, ExTerm{rdf.NewLiteral("hello")}, ExTerm{rdf.NewLiteral("i")},
	}}
	v, err := evalInCtx(t, e, row)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); !b {
		t.Fatal("case-insensitive regex should match")
	}
}

func TestInvalidRegexIsError(t *testing.T) {
	row := Binding{"s": rdf.NewLiteral("x")}
	e := ExCall{Name: "regex", Args: []Expression{ExVar{"s"}, ExTerm{rdf.NewLiteral("([")}}}
	if _, err := evalInCtx(t, e, row); err == nil {
		t.Fatal("invalid regex must error")
	}
}

func TestContainsAggregate(t *testing.T) {
	agg := ExAgg{Fn: "count", Star: true}
	if !containsAggregate(ExBinary{Op: ">=", L: agg, R: ExTerm{rdf.NewInteger(5)}}) {
		t.Fatal("aggregate in binary not detected")
	}
	if containsAggregate(ExVar{"x"}) {
		t.Fatal("false positive")
	}
}

func TestAggregateSampleAndMinMaxOnStrings(t *testing.T) {
	d := newEvalDict(store.NewDictionary())
	group := newIDRows([]string{"v"})
	for _, v := range []string{"b", "a", "c"} {
		group.appendRow([]store.ID{d.encode(rdf.NewLiteral(v))})
	}
	ctx := &evalCtx{groupSrc: group, dict: d}
	agg := func(fn string) (rdf.Term, error) {
		v, err := evalExpr(d.resolve(ExAgg{Fn: fn, Arg: ExVar{"v"}}, group.cols), ctx)
		return v.term(), err
	}
	min, err := agg("min")
	if err != nil || min.Value != "a" {
		t.Fatalf("min = %v, %v", min, err)
	}
	max, _ := agg("max")
	if max.Value != "c" {
		t.Fatalf("max = %v", max)
	}
	sample, _ := agg("sample")
	if sample.Value == "" {
		t.Fatal("sample returned unbound")
	}
}

// TestExtraIDsAboveStoreIDs: the ids the evaluator numbers computed values
// with start above every id the store dictionary can issue, so a store id
// never decodes as a query's BIND or aggregate value.
func TestExtraIDsAboveStoreIDs(t *testing.T) {
	if uint64(extraIDBase) <= store.MaxTerms {
		t.Fatalf("extraIDBase %d is not above store.MaxTerms %d", extraIDBase, uint64(store.MaxTerms))
	}
}

// bindingAggregate is the term-path reference for the aggregates
// TestAggregateVarMatchesTermPath checks: COUNT and SAMPLE, DISTINCT or
// not, and COUNT(*), over a group of Binding rows.
func bindingAggregate(x ExAgg, group []Binding) (rdf.Term, error) {
	if x.Star {
		return rdf.NewInteger(int64(len(group))), nil
	}
	var values []rdf.Term
	for _, b := range group {
		if v, err := EvalExpression(x.Arg, b); err == nil && !(x.Distinct && slices.Contains(values, v)) {
			values = append(values, v)
		}
	}
	if x.Fn == "count" {
		return rdf.NewInteger(int64(len(values))), nil
	}
	if len(values) == 0 {
		return rdf.Term{}, errExpr
	}
	return values[0], nil
}

// TestAggregateVarMatchesTermPath: COUNT, COUNT(DISTINCT) and SAMPLE of a
// bare variable or of an expression, and COUNT(*), over an id-space group
// (an order over the batch's rows, counted on ids) agree with the term
// path (the same group as Binding maps) on unbound cells, on values the
// store dictionary does not hold (extra ids), on an empty group and on a
// variable the batch has no column for.
func TestAggregateVarMatchesTermPath(t *testing.T) {
	sd := store.NewDictionary()
	stored := rdf.NewIRI("http://ex/stored")
	sd.Encode(stored)
	d := newEvalDict(sd)
	computed, other := rdf.NewInteger(42), rdf.NewLiteral("other")
	values := []rdf.Term{stored, computed, {}, stored, other, {}, computed, stored}
	src := newIDRows([]string{"k", "v"})
	var maps []Binding
	for i, v := range values {
		src.appendRow([]store.ID{d.encode(rdf.NewInteger(int64(i))), d.encode(v)})
		b := Binding{"k": rdf.NewInteger(int64(i))}
		if v.IsBound() {
			b["v"] = v
		}
		maps = append(maps, b)
	}
	if d.encode(computed) < extraIDBase || d.encode(stored) >= extraIDBase {
		t.Fatal("the fixture needs one stored and one computed value")
	}
	src.number()
	groups := [][]uint64{{0, 1, 2, 3, 4, 5, 6, 7}, {2, 5}, {2, 6, 1}, {}}
	for _, order := range groups {
		g := src.alias()
		g.order, g.n = order, len(order)
		group := []Binding{}
		for _, i := range order {
			group = append(group, maps[i])
		}
		for _, x := range []ExAgg{
			{Fn: "count", Arg: ExVar{Name: "v"}},
			{Fn: "count", Distinct: true, Arg: ExVar{Name: "v"}},
			{Fn: "sample", Arg: ExVar{Name: "v"}},
			{Fn: "sample", Distinct: true, Arg: ExVar{Name: "v"}},
			{Fn: "count", Arg: ExVar{Name: "absent"}},
			{Fn: "sample", Arg: ExVar{Name: "absent"}},
			{Fn: "count", Star: true},
			{Fn: "count", Arg: ExCall{Name: "str", Args: []Expression{ExVar{Name: "v"}}}},
			{Fn: "sample", Arg: ExCall{Name: "str", Args: []Expression{ExVar{Name: "v"}}}},
		} {
			got, gotErr := evalAggregate(d.resolve(x, src.cols).(ExAgg), &evalCtx{groupSrc: g, dict: d})
			want, wantErr := bindingAggregate(x, group)
			if got.term() != want || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s over rows %v: id path = %v (%v), term path = %v (%v)", RenderExpression(x), order, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestAggregateVarInHavingAndProjection reuses one bare-variable aggregate
// in HAVING and in the projection, over OPTIONAL-unbound cells and a BIND
// value the store does not hold, against the same query written with
// str(?v) arguments, which takes the term path.
func TestAggregateVarInHavingAndProjection(t *testing.T) {
	e := NewEngine(movieStore(t))
	const shape = `SELECT ?m (COUNT(%[1]s) AS ?n) (COUNT(DISTINCT %[2]s) AS ?d) (COUNT(%[3]s) AS ?g) WHERE {
		?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c .
		OPTIONAL { ?m <http://ex/genre> ?genre }
		BIND(strlen(str(?c)) AS ?len)
	} GROUP BY ?m HAVING (COUNT(%[1]s) >= 1 && COUNT(DISTINCT %[2]s) < 2)`
	ids := queryRows(t, e, fmt.Sprintf(shape, "?a", "?len", "?genre"))
	terms := queryRows(t, e, fmt.Sprintf(shape, "str(?a)", "str(?len)", "str(?genre)"))
	if len(ids) != 4 || !reflect.DeepEqual(ids, terms) {
		t.Fatalf("id path:\n%v\nterm path:\n%v", ids, terms)
	}
}

// TestIllTypedAndNaNNumerics: a numeric literal whose lexical form does not
// parse has no value, so it equals only the same term, comparing it with
// anything else is a type error, and so is ordering it; a NaN equals
// nothing, itself included, and orders before and after nothing.
func TestIllTypedAndNaNNumerics(t *testing.T) {
	const (
		bad = `"abc"^^<http://www.w3.org/2001/XMLSchema#integer>`
		nan = `"NaN"^^<http://www.w3.org/2001/XMLSchema#double>`
	)
	cases := []struct {
		expr string
		want bool
		err  bool
	}{
		{bad + ` = "0"^^<http://www.w3.org/2001/XMLSchema#integer>`, false, true},
		{bad + ` != 0`, false, true},
		{bad + ` = ` + bad, true, false},
		{bad + ` != ` + bad, false, false},
		{bad + ` >= 0`, false, true},
		{bad + ` < ` + bad, false, true},
		{bad + ` IN (0, ` + bad + `)`, true, false},
		{bad + ` IN (0, 1)`, false, false},
		{nan + ` = "0"^^<http://www.w3.org/2001/XMLSchema#integer>`, false, false},
		{nan + ` = ` + nan, false, false},
		{nan + ` != ` + nan, true, false},
		{nan + ` IN (` + nan + `)`, false, false},
		{nan + ` < 1`, false, false},
		{nan + ` >= 0`, false, false},
		{`!(` + nan + ` < 1)`, true, false},
		{`"NaN"^^<http://www.w3.org/2001/XMLSchema#integer> = 0`, false, true},
		{`1 = 1.0`, true, false},
		{`"01"^^<http://www.w3.org/2001/XMLSchema#integer> = 1`, true, false},
	}
	for _, c := range cases {
		e, err := ParseExpression(c.expr, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		v, err := EvalExpression(e, nil)
		if (err != nil) != c.err {
			t.Errorf("%s: error %v, want error %v", c.expr, err, c.err)
			continue
		}
		if got, _ := v.AsBool(); err == nil && got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
		if got := EvalCondition(e, nil); got != (c.want && !c.err) {
			t.Errorf("FILTER(%s) keeps the row: %v", c.expr, got)
		}
	}
}

// A call of a function IRI never runs as a builtin, whatever the IRI's
// spelling: <BOUND>(?a) and <isIRI>(?a) are unknown functions, an error
// that drops every row, exactly like <http://ex/unknown>(?a). The builtins
// spelled as names still keep every row.
func TestIRICallIsNeverABuiltin(t *testing.T) {
	e := NewEngine(movieStore(t))
	query := func(call string) [][]string {
		return queryRows(t, e, `SELECT ?a WHERE { ?m <http://ex/starring> ?a FILTER(`+call+`(?a)) }`)
	}
	unknown := query("<http://ex/unknown>")
	if len(unknown) != 0 {
		t.Fatalf("an unknown function kept %d rows", len(unknown))
	}
	for _, call := range []string{"<BOUND>", "<bound>", "<isIRI>", "<isiri>"} {
		if got := query(call); !reflect.DeepEqual(got, unknown) {
			t.Errorf("%s(?a) kept %d rows, want %d like an unknown function", call, len(got), len(unknown))
		}
	}
	for _, call := range []string{"BOUND", "bound", "isIRI", "ISIRI"} {
		if got := query(call); len(got) != 5 {
			t.Errorf("%s(?a) kept %d rows, want 5", call, len(got))
		}
	}
}

// TestNumericExpressionsAllocateNothingPerRow: a computed number stays a
// float64 until it leaves the expression. cs2's year filter reads a
// dateTime cell, takes its year and compares it with the parsed constant
// without building a term, and a HAVING count compares without formatting
// the count. Years and counts of 100 and more would allocate per row or
// per group if they went through decimal strings: strconv caches only
// 0–99.
func TestNumericExpressionsAllocateNothingPerRow(t *testing.T) {
	sd := store.NewDictionary()
	date := sd.Encode(rdf.NewTypedLiteral("2012-06-01T00:00:00", rdf.XSDDateTime))
	d := newEvalDict(sd)
	cond, err := ParseExpression("year(xsd:dateTime(?date)) >= 2005", rdf.CommonPrefixes())
	if err != nil {
		t.Fatal(err)
	}
	resolved := d.resolve(cond, map[string]int{"date": 0})
	ctx := &evalCtx{cells: []store.ID{date}, dict: d, cache: &regexCache{}}
	if !evalBool(resolved, ctx) {
		t.Fatal("2012 >= 2005 is false")
	}
	if allocs := testing.AllocsPerRun(100, func() { evalBool(resolved, ctx) }); allocs != 0 {
		t.Errorf("the year filter allocates %v objects per row", allocs)
	}

	const groups, perGroup = 100, 150
	for i := 0; i < groups; i++ {
		sd.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/k%d", i)))
	}
	cells := make([]store.ID, 0, 2*groups*perGroup)
	for i := 0; i < groups*perGroup; i++ {
		cells = append(cells, date+1+store.ID(i/perGroup), date)
	}
	q, err := Parse(`SELECT ?k WHERE { } GROUP BY ?k HAVING (COUNT(?v) >= 12)`)
	if err != nil {
		t.Fatal(err)
	}
	ev := &evaluator{dict: newEvalDict(sd), cache: &regexCache{}}
	var out *idRows
	allocs := testing.AllocsPerRun(5, func() {
		in := newIDRows([]string{"k", "v"})
		in.setRows(cells)
		in.n = groups * perGroup
		if out, err = ev.aggregate(q, in); err != nil {
			t.Fatal(err)
		}
	})
	if out.n != groups {
		t.Fatalf("%d groups kept, want %d", out.n, groups)
	}
	// 40 measured (46 for 1,000 groups); a count formatted per group made
	// 139.
	if allocs > 60 {
		t.Errorf("aggregate allocates %v objects for %d groups", allocs, groups)
	}
}
