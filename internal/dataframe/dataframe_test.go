package dataframe

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

func TestDropNull(t *testing.T) {
	df := New("a", "b")
	df.Append(row(lit("x"), lit("y")))
	df.Append(row(lit("z"), null()))
	if got := df.DropNull("b").Len(); got != 1 {
		t.Fatalf("dropnull = %d", got)
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

func TestInnerJoin(t *testing.T) {
	left := FromRows([]string{"actor", "movie"}, [][]rdf.Term{
		row(iri("a1"), iri("m1")),
		row(iri("a2"), iri("m2")),
	})
	right := FromRows([]string{"star", "award"}, [][]rdf.Term{
		row(iri("a1"), iri("oscar")),
		row(iri("a1"), iri("bafta")),
		row(iri("a9"), iri("emmy")),
	})
	j, err := left.Join(right, "actor", "star", InnerJoin, "actor")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("inner join len = %d", j.Len())
	}
	if !reflect.DeepEqual(j.Columns(), []string{"actor", "movie", "award"}) {
		t.Fatalf("cols = %v", j.Columns())
	}
}

func TestLeftOuterJoin(t *testing.T) {
	left := FromRows([]string{"a"}, [][]rdf.Term{row(iri("x")), row(iri("y"))})
	right := FromRows([]string{"a2", "v"}, [][]rdf.Term{row(iri("x"), lit("1"))})
	j, err := left.Join(right, "a", "a2", LeftOuterJoin, "a")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("left join len = %d", j.Len())
	}
	found := false
	for i := 0; i < j.Len(); i++ {
		if j.Cell(i, "a") == iri("y") && !j.Cell(i, "v").IsBound() {
			found = true
		}
	}
	if !found {
		t.Fatal("unmatched left row missing or not null-padded")
	}
}

func TestRightAndFullOuterJoin(t *testing.T) {
	left := FromRows([]string{"a", "l"}, [][]rdf.Term{row(iri("x"), lit("L"))})
	right := FromRows([]string{"a2", "r"}, [][]rdf.Term{row(iri("x"), lit("R")), row(iri("z"), lit("Z"))})
	rj, err := left.Join(right, "a", "a2", RightOuterJoin, "a")
	if err != nil {
		t.Fatal(err)
	}
	if rj.Len() != 2 {
		t.Fatalf("right join len = %d", rj.Len())
	}
	fj, _ := left.Join(right, "a", "a2", FullOuterJoin, "a")
	if fj.Len() != 2 { // x matches, z unmatched-right; no unmatched-left
		t.Fatalf("full join len = %d", fj.Len())
	}
	left2 := FromRows([]string{"a", "l"}, [][]rdf.Term{row(iri("w"), lit("W"))})
	fj2, _ := left2.Join(right, "a", "a2", FullOuterJoin, "a")
	if fj2.Len() != 3 { // w unmatched-left, x and z unmatched-right
		t.Fatalf("full join len = %d, want 3", fj2.Len())
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	left := FromRows([]string{"a"}, [][]rdf.Term{row(null())})
	right := FromRows([]string{"b"}, [][]rdf.Term{row(null())})
	j, _ := left.Join(right, "a", "b", InnerJoin, "k")
	if j.Len() != 0 {
		t.Fatalf("null keys matched: %d rows", j.Len())
	}
}

func TestJoinDuplicateColumnSuffix(t *testing.T) {
	left := FromRows([]string{"k", "v"}, [][]rdf.Term{row(iri("x"), lit("lv"))})
	right := FromRows([]string{"k2", "v"}, [][]rdf.Term{row(iri("x"), lit("rv"))})
	j, err := left.Join(right, "k", "k2", InnerJoin, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Columns(), []string{"k", "v", "v_2"}) {
		t.Fatalf("cols = %v", j.Columns())
	}
}

func TestJoinBagSemanticsMultiplies(t *testing.T) {
	left := FromRows([]string{"k"}, [][]rdf.Term{row(iri("x")), row(iri("x"))})
	right := FromRows([]string{"k2"}, [][]rdf.Term{row(iri("x")), row(iri("x")), row(iri("x"))})
	j, _ := left.Join(right, "k", "k2", InnerJoin, "k")
	if j.Len() != 6 {
		t.Fatalf("bag join = %d rows, want 6", j.Len())
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

// Property: inner join row count equals the sum over keys of left-count *
// right-count (with non-null keys).
func TestJoinCountProperty(t *testing.T) {
	f := func(leftKeys, rightKeys []uint8) bool {
		left := New("k")
		for _, k := range leftKeys {
			left.Append(row(num(int64(k % 8))))
		}
		right := New("k2")
		for _, k := range rightKeys {
			right.Append(row(num(int64(k % 8))))
		}
		j, err := left.Join(right, "k", "k2", InnerJoin, "k")
		if err != nil {
			return false
		}
		lc := map[int64]int{}
		for _, k := range leftKeys {
			lc[int64(k%8)]++
		}
		rc := map[int64]int{}
		for _, k := range rightKeys {
			rc[int64(k%8)]++
		}
		want := 0
		for k, n := range lc {
			want += n * rc[k]
		}
		return j.Len() == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: full outer join contains every left and right row at least once.
func TestFullOuterJoinCoverageProperty(t *testing.T) {
	f := func(leftKeys, rightKeys []uint8) bool {
		left := New("k")
		for _, k := range leftKeys {
			left.Append(row(num(int64(k % 5))))
		}
		right := New("k2")
		for _, k := range rightKeys {
			right.Append(row(num(int64(k % 5))))
		}
		j, err := left.Join(right, "k", "k2", FullOuterJoin, "k")
		if err != nil {
			return false
		}
		// Row count >= max(|L|, |R|) and >= inner count.
		inner, _ := left.Join(right, "k", "k2", InnerJoin, "k")
		if j.Len() < inner.Len() {
			return false
		}
		if j.Len() < left.Len() && left.Len() > 0 && inner.Len() == 0 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	df := sampleDF()
	s := df.String()
	if len(s) == 0 || !reflect.DeepEqual(df.Columns(), []string{"movie", "actor", "country"}) {
		t.Fatalf("string = %q", s)
	}
}

// TestFromRowsBlockBacking pins FromRows to Append's semantics now that it
// copies into shared row blocks: short rows padded, long rows truncated,
// the input never aliased, Row still a live view, and neighbouring rows
// out of reach of an append through that view.
func TestFromRowsBlockBacking(t *testing.T) {
	a, b, c := rdf.NewIRI("http://a"), rdf.NewIRI("http://b"), rdf.NewIRI("http://c")
	in := [][]rdf.Term{{a, b}, {c}, {a, b, c}, nil}
	df := FromRows([]string{"x", "y"}, in)
	byAppend := New("x", "y")
	for _, r := range in {
		byAppend.Append(r)
	}
	if df.String() != byAppend.String() || df.Len() != 4 {
		t.Fatalf("FromRows built\n%v\nAppend built\n%v", df, byAppend)
	}
	if got := df.Row(1); len(got) != 2 || got[0] != c || got[1].IsBound() {
		t.Fatalf("short row not padded: %v", got)
	}
	if got := df.Row(2); len(got) != 2 || got[1] != b {
		t.Fatalf("long row not truncated: %v", got)
	}
	in[0][0] = c
	if df.Cell(0, "x") != a {
		t.Fatal("frame aliases its input rows")
	}
	df.Row(0)[1] = c
	if df.Cell(0, "y") != c {
		t.Fatal("Row is no longer a live view of the frame")
	}
	_ = append(df.Row(0), b)
	if df.Cell(1, "x") != c {
		t.Fatal("append through Row(0) overwrote row 1")
	}
	// Across block boundaries every row is still its own.
	many := make([][]rdf.Term, 2*fromRowsBlock+7)
	for i := range many {
		many[i] = []rdf.Term{rdf.NewInteger(int64(i))}
	}
	big := FromRows([]string{"x", "y"}, many)
	for i := range many {
		if got := big.Row(i); len(got) != 2 || got[0] != many[i][0] || got[1].IsBound() {
			t.Fatalf("row %d of %d: %v", i, len(many), got)
		}
	}
}
