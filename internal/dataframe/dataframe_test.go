package dataframe

import (
	"reflect"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
)

func iri(s string) rdf.Term         { return rdf.NewIRI("http://ex/" + s) }
func lit(s string) rdf.Term         { return rdf.NewLiteral(s) }
func num(n int64) rdf.Term          { return rdf.NewInteger(n) }
func null() rdf.Term                { return rdf.Term{} }
func row(ts ...rdf.Term) []rdf.Term { return ts }

func sampleDF() *DataFrame {
	return FromRows([]string{"movie", "actor", "country"}, [][]rdf.Term{
		row(iri("m1"), iri("a1"), iri("US")),
		row(iri("m1"), iri("a2"), iri("UK")),
		row(iri("m2"), iri("a1"), iri("US")),
		row(iri("m3"), iri("a2"), iri("UK")),
		row(iri("m4"), iri("a3"), iri("US")),
	})
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column accepted")
		}
	}()
	New("a", "a")
}

func TestAppendPadsShortRows(t *testing.T) {
	df := New("a", "b")
	df.Append(row(lit("x")))
	if df.Cell(0, "b").IsBound() {
		t.Fatal("short row not padded with null")
	}
}

func TestFilter(t *testing.T) {
	df := sampleDF()
	us := df.Filter(func(_ []rdf.Term, get func(string) rdf.Term) bool {
		return get("country") == iri("US")
	})
	if us.Len() != 3 {
		t.Fatalf("len = %d, want 3", us.Len())
	}
}

// TestDropNull drops the rows whose column is unbound, through Filter.
func TestDropNull(t *testing.T) {
	df := New("a", "b")
	df.Append(row(lit("x"), lit("y")))
	df.Append(row(lit("z"), null()))
	bound := df.Filter(func(_ []rdf.Term, get func(string) rdf.Term) bool {
		return get("b").IsBound()
	})
	if bound.Len() != 1 || bound.Cell(0, "a") != lit("x") {
		t.Fatalf("rows with a bound b: %v", bound)
	}
}

func TestSelectAndRename(t *testing.T) {
	df := sampleDF()
	sel, err := df.Select("actor", "movie")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.Columns(), []string{"actor", "movie"}) {
		t.Fatalf("cols = %v", sel.Columns())
	}
	if sel.Cell(0, "actor") != iri("a1") {
		t.Fatalf("cell = %v", sel.Cell(0, "actor"))
	}
	if _, err := df.Select("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	ren, err := df.Rename("actor", "star")
	if err != nil {
		t.Fatal(err)
	}
	if !ren.HasColumn("star") || ren.HasColumn("actor") {
		t.Fatalf("rename failed: %v", ren.Columns())
	}
}

func TestDistinct(t *testing.T) {
	df := New("x")
	df.Append(row(lit("a")))
	df.Append(row(lit("a")))
	df.Append(row(lit("b")))
	if got := df.Distinct().Len(); got != 2 {
		t.Fatalf("distinct = %d", got)
	}
}

func TestHead(t *testing.T) {
	df := sampleDF()
	if got := df.Head(2, 0).Len(); got != 2 {
		t.Fatalf("head = %d", got)
	}
	h := df.Head(10, 3)
	if h.Len() != 2 {
		t.Fatalf("head with offset = %d", h.Len())
	}
	if h.Cell(0, "movie") != iri("m3") {
		t.Fatalf("offset wrong: %v", h.Cell(0, "movie"))
	}
}

func TestSort(t *testing.T) {
	df := New("n")
	for _, v := range []int64{3, 1, 2} {
		df.Append(row(num(v)))
	}
	asc, err := df.Sort(SortKey{Col: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if asc.Cell(0, "n") != num(1) || asc.Cell(2, "n") != num(3) {
		t.Fatalf("asc = %v", asc.Column("n"))
	}
	desc, _ := df.Sort(SortKey{Col: "n", Desc: true})
	if desc.Cell(0, "n") != num(3) {
		t.Fatalf("desc = %v", desc.Column("n"))
	}
	if _, err := df.Sort(SortKey{Col: "zzz"}); err == nil {
		t.Fatal("unknown sort column accepted")
	}
}

func TestGroupByCount(t *testing.T) {
	df := sampleDF()
	g, err := df.GroupBy("actor")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := g.Aggregate(AggSpec{Fn: Count, Col: "movie", As: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 3 {
		t.Fatalf("groups = %d", agg.Len())
	}
	counts := map[rdf.Term]rdf.Term{}
	for i := 0; i < agg.Len(); i++ {
		counts[agg.Cell(i, "actor")] = agg.Cell(i, "n")
	}
	if counts[iri("a1")] != num(2) || counts[iri("a3")] != num(1) {
		t.Fatalf("counts = %v", counts)
	}
}

func TestGroupByCountDistinct(t *testing.T) {
	df := New("k", "v")
	df.Append(row(lit("g"), lit("x")))
	df.Append(row(lit("g"), lit("x")))
	df.Append(row(lit("g"), lit("y")))
	g, _ := df.GroupBy("k")
	agg, err := g.Aggregate(AggSpec{Fn: Count, Col: "v", As: "n", Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cell(0, "n") != num(2) {
		t.Fatalf("distinct count = %v", agg.Cell(0, "n"))
	}
}

func TestGroupByNumericAggregates(t *testing.T) {
	df := New("k", "v")
	for _, v := range []int64{10, 20} {
		df.Append(row(lit("g"), num(v)))
	}
	g, _ := df.GroupBy("k")
	agg, err := g.Aggregate(
		AggSpec{Fn: Sum, Col: "v", As: "sum"},
		AggSpec{Fn: Avg, Col: "v", As: "avg"},
		AggSpec{Fn: Min, Col: "v", As: "min"},
		AggSpec{Fn: Max, Col: "v", As: "max"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cell(0, "sum") != num(30) || agg.Cell(0, "min") != num(10) || agg.Cell(0, "max") != num(20) {
		t.Fatalf("aggs = %v", agg)
	}
	if f, _ := agg.Cell(0, "avg").AsFloat(); f != 15 {
		t.Fatalf("avg = %v", agg.Cell(0, "avg"))
	}
}

func TestGroupBySkipsNulls(t *testing.T) {
	df := New("k", "v")
	df.Append(row(lit("g"), num(5)))
	df.Append(row(lit("g"), null()))
	g, _ := df.GroupBy("k")
	agg, _ := g.Aggregate(AggSpec{Fn: Count, Col: "v", As: "n"})
	if agg.Cell(0, "n") != num(1) {
		t.Fatalf("count = %v (nulls must be skipped)", agg.Cell(0, "n"))
	}
}

func TestWholeFrameAggregate(t *testing.T) {
	df := New("v")
	for _, v := range []int64{1, 2, 3} {
		df.Append(row(num(v)))
	}
	agg, err := df.Aggregate(Sum, "v", "total", false)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 1 || agg.Cell(0, "total") != num(6) {
		t.Fatalf("agg = %v", agg)
	}
}

func TestSumOverNonNumericFails(t *testing.T) {
	df := New("v")
	df.Append(row(iri("x")))
	if _, err := df.Aggregate(Sum, "v", "s", false); err == nil {
		t.Fatal("sum over IRI accepted")
	}
}

func TestMultisetEqual(t *testing.T) {
	a := FromRows([]string{"x", "y"}, [][]rdf.Term{
		row(lit("1"), lit("a")),
		row(lit("2"), lit("b")),
	})
	// Same bag, different row and column order.
	b := FromRows([]string{"y", "x"}, [][]rdf.Term{
		row(lit("b"), lit("2")),
		row(lit("a"), lit("1")),
	})
	if !MultisetEqual(a, b) {
		t.Fatal("equal bags reported unequal")
	}
	c := FromRows([]string{"x", "y"}, [][]rdf.Term{
		row(lit("1"), lit("a")),
		row(lit("1"), lit("a")),
	})
	if MultisetEqual(a, c) {
		t.Fatal("different bags reported equal")
	}
}

func TestStringRendering(t *testing.T) {
	df := sampleDF()
	s := df.String()
	if len(s) == 0 || !reflect.DeepEqual(df.Columns(), []string{"movie", "actor", "country"}) {
		t.Fatalf("string = %q", s)
	}
}

// TestFromRowsPadsTruncatesAndCopies pins FromRows to Append's semantics —
// short rows padded, long rows truncated, the input never aliased — and to
// an exact-size table: one entry per bound cell after the null.
func TestFromRowsPadsTruncatesAndCopies(t *testing.T) {
	a, b, c := iri("a"), iri("b"), iri("c")
	in := [][]rdf.Term{{a, b}, {c}, {a, b, c}, nil}
	df := FromRows([]string{"x", "y"}, in)
	byAppend := New("x", "y")
	for _, r := range in {
		byAppend.Append(r)
	}
	if df.String() != byAppend.String() || df.Len() != 4 {
		t.Fatalf("FromRows built\n%v\nAppend built\n%v", df, byAppend)
	}
	if df.Cell(1, "x") != c || df.Cell(1, "y").IsBound() {
		t.Fatalf("short row not padded: %v %v", df.Cell(1, "x"), df.Cell(1, "y"))
	}
	if df.Cell(2, "y") != b {
		t.Fatalf("long row not truncated: %v", df.Cell(2, "y"))
	}
	if len(df.terms) != 6 || cap(df.terms) != 6 || len(df.cells) != 8 || cap(df.cells) != 8 {
		t.Fatalf("table of %d/%d terms and %d/%d cells, want 6 and 8 exactly",
			len(df.terms), cap(df.terms), len(df.cells), cap(df.cells))
	}
	in[0][0] = c
	if df.Cell(0, "x") != a {
		t.Fatal("frame aliases its input rows")
	}
}

// TestFromTableIsCapped builds a frame over the middle rows of a larger
// table, the way a page of a cached result is handed over, and runs every
// operation that returns or grows a frame on it: none may write into the
// table, before or after the page.
func TestFromTableIsCapped(t *testing.T) {
	terms := []rdf.Term{{}, iri("a"), iri("b"), num(3), iri("a"), iri("spare")}
	cells := []uint32{1, 2, 3, 0, 4, 1, 2, 2}
	wantTerms, wantCells := slices.Clone(terms), slices.Clone(cells)
	page := FromTable([]string{"x", "y"}, terms[:5], cells[2:6], 2)
	if page.Cell(0, "x") != num(3) || page.Cell(0, "y").IsBound() || page.Cell(1, "x") != iri("a") {
		t.Fatalf("page reads %v", page)
	}
	page.Append(row(iri("z"), iri("z")))
	ren, err := page.Rename("x", "x2")
	if err != nil {
		t.Fatal(err)
	}
	ren.Append(row(iri("w")))
	sorted, err := page.Sort(SortKey{Col: "x", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	sorted.Append(row(iri("v")))
	kept := page.Filter(func([]rdf.Term, func(string) rdf.Term) bool { return true })
	kept.Append(row(iri("u")))
	both, err := page.Concat(page)
	if err != nil {
		t.Fatal(err)
	}
	both.Append(row(iri("t")))
	head := page.Head(1, 0)
	head.Append(row(iri("s")))
	if !slices.Equal(terms, wantTerms) || !slices.Equal(cells, wantCells) {
		t.Fatalf("the adopted table changed: %v %v", terms, cells)
	}
	if page.Len() != 3 || page.Cell(2, "x") != iri("z") || ren.Len() != 4 || head.Len() != 2 {
		t.Fatalf("frames lost rows: page %d, renamed %d, head %d", page.Len(), ren.Len(), head.Len())
	}
	if both.Len() != 7 || both.Cell(3, "x") != num(3) || both.Cell(5, "x") != iri("z") || both.Cell(6, "x") != iri("t") {
		t.Fatalf("concat reads\n%v", both)
	}
	if sorted.Cell(0, "x") != num(3) || sorted.Cell(1, "x") != iri("z") || sorted.Cell(2, "x") != iri("a") {
		t.Fatalf("sort reads\n%v", sorted)
	}
	if empty := FromTable(nil, nullTable, nil, 3); empty.Len() != 3 {
		t.Fatalf("a table without columns has %d rows, want 3", empty.Len())
	}
}

// TestDuplicateTermsCompareAsTerms: a table may hold a term twice, so every
// operation that compares rows must compare terms, not cells.
func TestDuplicateTermsCompareAsTerms(t *testing.T) {
	df := FromTable([]string{"k", "v"}, []rdf.Term{{}, lit("g"), num(1), lit("g"), num(1)}, []uint32{1, 2, 3, 4}, 2)
	if got := df.Distinct().Len(); got != 1 {
		t.Fatalf("distinct = %d, want 1", got)
	}
	g, err := df.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := g.Aggregate(AggSpec{Fn: Count, Col: "v", As: "n", Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 1 || agg.Cell(0, "n") != num(1) {
		t.Fatalf("groups:\n%v", agg)
	}
	if !MultisetEqual(df, FromRows([]string{"v", "k"}, [][]rdf.Term{row(num(1), lit("g")), row(num(1), lit("g"))})) {
		t.Fatal("frames differing only in their term tables compare unequal")
	}
}
