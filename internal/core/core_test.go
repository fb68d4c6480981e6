package core

import (
	"reflect"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

const testGraph = "http://test.org/g"

func testChain(ops ...Op) *Chain {
	return &Chain{Ops: ops}
}

// cond is a filter condition on col with the expression src.
func cond(col, src string) Condition {
	e, err := sparql.ParseExpression(src, nil)
	if err != nil {
		panic(err)
	}
	return Condition{Col: col, Expr: e}
}

// rendered is the text the renderer writes for the expression src.
func rendered(src string) string { return sparql.RenderExpression(cond("", src).Expr) }

func seed(s, p, o string) SeedOp {
	node := func(v string) sparql.Node {
		if strings.Contains(v, ":") {
			return sparql.TermNode(rdf.NewIRI(v))
		}
		return sparql.Variable(v)
	}
	return SeedOp{GraphURI: testGraph, S: node(s), P: node(p), O: node(o)}
}

func expand(src, pred, dst string) ExpandOp {
	return ExpandOp{GraphURI: testGraph, Src: src, Pred: rdf.NewIRI(pred), New: dst}
}

// mustSPARQL compiles a chain to text, and checks that the text parses back
// to the query the translator built.
func mustSPARQL(t *testing.T, c *Chain) string {
	t.Helper()
	text, err := BuildSPARQL(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	sameQuery(t, text, Translate(m))
	return text
}

// mustNaive is mustSPARQL for the naive translator.
func mustNaive(t *testing.T, c *Chain) string {
	t.Helper()
	q, err := NaiveTranslate(c)
	if err != nil {
		t.Fatal(err)
	}
	text := sparql.Render(q)
	sameQuery(t, text, q)
	return text
}

func sameQuery(t *testing.T, text string, built *sparql.Query) {
	t.Helper()
	back, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	back.Window = 0
	if !reflect.DeepEqual(back, built) {
		t.Fatalf("the text does not parse back to the built query:\n%s", text)
	}
}

// TestTable1Mappings checks each row of the paper's Table 1: the SPARQL
// pattern each operator maps to.
func TestTable1Mappings(t *testing.T) {
	base := seed("movie", "http://p/starring", "actor")
	cases := []struct {
		name string
		ops  []Op
		want []string
	}{
		{"seed", []Op{base},
			[]string{"?movie <http://p/starring> ?actor ."}},
		{"expand_out", []Op{base, expand("actor", "http://p/born", "place")},
			[]string{"?actor <http://p/born> ?place ."}},
		{"expand_in", []Op{base, ExpandOp{GraphURI: testGraph, Src: "actor", Pred: rdf.NewIRI("http://p/knows"), New: "fan", In: true}},
			[]string{"?fan <http://p/knows> ?actor ."}},
		{"expand_optional", []Op{base, ExpandOp{GraphURI: testGraph, Src: "actor", Pred: rdf.NewIRI("http://p/award"), New: "award", Optional: true}},
			[]string{"OPTIONAL {", "?actor <http://p/award> ?award ."}},
		{"filter", []Op{base, FilterOp{Conds: []Condition{cond("actor", "isIRI(?actor)")}}},
			[]string{"FILTER ( isiri(?actor) )"}},
		{"select_cols", []Op{base, SelectColsOp{Cols: []string{"actor"}}},
			[]string{"SELECT ?actor"}},
		{"group_agg", []Op{base, GroupByOp{Cols: []string{"actor"}}, AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}}},
			[]string{"GROUP BY ?actor", "(COUNT(?movie) AS ?n)"}},
		{"aggregate", []Op{base, AggregateOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n", Distinct: true}}},
			[]string{"SELECT (COUNT(DISTINCT ?movie) AS ?n)", "?movie <http://p/starring> ?actor ."}},
		{"sort_head", []Op{base, SortOp{Keys: []SortKey{{Col: "actor", Desc: true}}}, HeadOp{K: 5, Offset: 2}},
			[]string{"ORDER BY DESC(?actor)", "LIMIT 5", "OFFSET 2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := mustSPARQL(t, testChain(tc.ops...))
			for _, want := range tc.want {
				if !strings.Contains(q, want) {
					t.Errorf("missing %q in:\n%s", want, q)
				}
			}
		})
	}
}

// The aggregate row of Table 1 emits SELECT DISTINCT because whole-frame
// aggregates reduce to a single row; the grouped case keeps DISTINCT too.
// Verify the three nesting cases of §4.2.

func TestCase1ExpandAfterGroupingNests(t *testing.T) {
	q := mustSPARQL(t, testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		expand("actor", "http://p/born", "place"),
	))
	if strings.Count(q, "SELECT") != 2 {
		t.Fatalf("expected nested subquery:\n%s", q)
	}
	inner := q[strings.Index(q, "{"):]
	if !strings.Contains(inner, "GROUP BY ?actor") {
		t.Fatalf("grouping must be inside the subquery:\n%s", q)
	}
	// The expand pattern is in the outer query, after the subquery.
	if !strings.Contains(q, "?actor <http://p/born> ?place .") {
		t.Fatalf("expand pattern missing:\n%s", q)
	}
}

func TestCase1FilterOnGroupingColumnNests(t *testing.T) {
	q := mustSPARQL(t, testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		FilterOp{Conds: []Condition{cond("actor", "isIRI(?actor)")}},
	))
	if strings.Count(q, "SELECT") != 2 {
		t.Fatalf("expected nested subquery:\n%s", q)
	}
}

func TestFilterOnAggregateColumnBecomesHaving(t *testing.T) {
	q := mustSPARQL(t, testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n", Distinct: true}},
		FilterOp{Conds: []Condition{cond("n", "?n >= 50")}},
	))
	if !strings.Contains(q, "HAVING ( "+rendered("COUNT(DISTINCT ?movie) >= 50")+" )") {
		t.Fatalf("HAVING with substituted aggregate missing:\n%s", q)
	}
	if strings.Count(q, "SELECT") != 1 {
		t.Fatalf("HAVING must not introduce nesting:\n%s", q)
	}
}

// TestHavingSubstitutionSkipsLiterals: the aggregate replaces its column's
// variable, in either spelling, and not the same text inside a literal or
// an IRI.
func TestHavingSubstitutionSkipsLiterals(t *testing.T) {
	c := testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		FilterOp{Conds: []Condition{cond("n", `$n >= 5 && str(?n) != "?n" && ?actor != <http://ex/?n>`)}},
	)
	mustSPARQL(t, c)
	m, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	q := Translate(m)
	want := cond("", `COUNT(?movie) >= 5 && str(COUNT(?movie)) != "?n" && ?actor != <http://ex/?n>`).Expr
	if len(q.Having) != 1 || !reflect.DeepEqual(q.Having[0], want) {
		t.Fatalf("HAVING %v, want %s", q.Having, sparql.RenderExpression(want))
	}
}

// TestNaiveRefusesFilterOutOfScope: a filter on a column that grouping hid
// and nothing brings back is an error under both generators, not a query
// that silently drops the filter.
func TestNaiveRefusesFilterOutOfScope(t *testing.T) {
	c := testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		FilterOp{Conds: []Condition{cond("movie", "?movie = <http://r/X>")}},
	)
	_, genErr := Generate(c)
	_, naiveErr := NaiveTranslate(c)
	if genErr == nil || naiveErr == nil || genErr.Error() != naiveErr.Error() {
		t.Fatalf("Generate: %v; NaiveTranslate: %v; want the same error", genErr, naiveErr)
	}
}

func TestCase2JoinWithGroupedFrameNests(t *testing.T) {
	grouped := testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
	)
	q := mustSPARQL(t, testChain(
		seed("actor", "http://p/award", "award"),
		JoinOp{Other: grouped, Col: "actor", OtherCol: "actor", Type: InnerJoin, NewCol: "actor"},
	))
	if strings.Count(q, "SELECT") != 2 {
		t.Fatalf("join with grouped frame must nest exactly once:\n%s", q)
	}
	if !strings.Contains(q, "?actor <http://p/award> ?award .") {
		t.Fatalf("outer pattern missing:\n%s", q)
	}
}

func TestCase2BothSidesGroupedTwoSubqueries(t *testing.T) {
	mk := func(pred string) *Chain {
		return testChain(
			seed("x", pred, "y"),
			GroupByOp{Cols: []string{"x"}},
			AggregationOp{Agg: AggSpec{Fn: "count", Src: "y", New: "n" + pred[len(pred)-1:]}},
		)
	}
	left := mk("http://p/a")
	right := mk("http://p/b")
	q := mustSPARQL(t, &Chain{
		Ops: append(left.Ops,
			JoinOp{Other: right, Col: "x", OtherCol: "x", Type: InnerJoin, NewCol: "x"}),
	})
	if strings.Count(q, "GROUP BY") != 2 {
		t.Fatalf("want two grouped subqueries:\n%s", q)
	}
	if strings.Count(q, "SELECT") != 3 {
		t.Fatalf("want outer + two subqueries:\n%s", q)
	}
}

func TestCase3FullOuterJoinIsUnionOfOptionals(t *testing.T) {
	right := testChain(seed("actor", "http://p/b", "z"))
	q := mustSPARQL(t, testChain(
		seed("actor", "http://p/a", "y"),
		JoinOp{Other: right, Col: "actor", OtherCol: "actor", Type: FullOuterJoin, NewCol: "actor"},
	))
	if strings.Count(q, "UNION") != 1 {
		t.Fatalf("full outer join must union two branches:\n%s", q)
	}
	if strings.Count(q, "OPTIONAL") != 2 {
		t.Fatalf("each branch needs one OPTIONAL:\n%s", q)
	}
}

func TestInnerJoinOfPatternFramesMergesWithoutNesting(t *testing.T) {
	right := testChain(seed("actor", "http://p/b", "z"))
	q := mustSPARQL(t, testChain(
		seed("actor", "http://p/a", "y"),
		JoinOp{Other: right, Col: "actor", OtherCol: "actor", Type: InnerJoin, NewCol: "actor"},
	))
	if strings.Count(q, "SELECT") != 1 {
		t.Fatalf("pattern-only join must not nest:\n%s", q)
	}
	for _, want := range []string{"?actor <http://p/a> ?y .", "?actor <http://p/b> ?z ."} {
		if !strings.Contains(q, want) {
			t.Fatalf("missing %q:\n%s", want, q)
		}
	}
}

func TestLeftOuterJoinWrapsRightInOptional(t *testing.T) {
	right := testChain(seed("actor", "http://p/b", "z"))
	q := mustSPARQL(t, testChain(
		seed("actor", "http://p/a", "y"),
		JoinOp{Other: right, Col: "actor", OtherCol: "actor", Type: LeftOuterJoin, NewCol: "actor"},
	))
	optIdx := strings.Index(q, "OPTIONAL")
	if optIdx < 0 || !strings.Contains(q[optIdx:], "http://p/b") {
		t.Fatalf("right side must be inside OPTIONAL:\n%s", q)
	}
	if strings.Contains(q[optIdx:], "http://p/a") {
		t.Fatalf("left side leaked into OPTIONAL:\n%s", q)
	}
}

func TestJoinRenamesColumns(t *testing.T) {
	right := testChain(seed("star", "http://p/b", "z"))
	q := mustSPARQL(t, testChain(
		seed("actor", "http://p/a", "y"),
		JoinOp{Other: right, Col: "actor", OtherCol: "star", Type: InnerJoin, NewCol: "person"},
	))
	if strings.Contains(q, "?actor") || strings.Contains(q, "?star") {
		t.Fatalf("join columns not renamed:\n%s", q)
	}
	if strings.Count(q, "?person") < 2 {
		t.Fatalf("renamed column must appear in both patterns:\n%s", q)
	}
}

// TestJoinRenameLeavesChainAlone: renaming a grouping column for a join
// edits the model, not the recorded operators, so a frame compiles to the
// same query every time.
func TestJoinRenameLeavesChainAlone(t *testing.T) {
	c := testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		JoinOp{Other: testChain(seed("star", "http://p/b", "z")), Col: "actor", OtherCol: "star", Type: InnerJoin, NewCol: "person"},
	)
	first := mustSPARQL(t, c)
	if again := mustSPARQL(t, c); again != first {
		t.Fatalf("the second compile differs:\n%s\nfirst:\n%s", again, first)
	}
	if got := c.Ops[1].(GroupByOp).Cols[0]; got != "actor" {
		t.Fatalf("the recorded GroupByOp now groups by %q", got)
	}
}

func TestMergeDeduplicatesBranchedPatterns(t *testing.T) {
	// Two branches from the same seed joined back: the shared pattern
	// appears once.
	shared := seed("movie", "http://p/starring", "actor")
	left := testChain(shared, expand("actor", "http://p/born", "place"))
	right := testChain(shared, expand("movie", "http://p/title", "title"))
	q := mustSPARQL(t, &Chain{
		Ops: append(left.Ops,
			JoinOp{Other: right, Col: "actor", OtherCol: "actor", Type: InnerJoin, NewCol: "actor"}),
	})
	if strings.Count(q, "?movie <http://p/starring> ?actor .") != 1 {
		t.Fatalf("shared pattern duplicated:\n%s", q)
	}
}

func TestChainValidation(t *testing.T) {
	bad := []*Chain{
		testChain(),
		testChain(expand("a", "http://p/x", "b")),
		testChain(seed("a", "http://p/x", "b"), GroupByOp{Cols: []string{"a"}}),
		testChain(seed("a", "http://p/x", "b"), AggregationOp{Agg: AggSpec{Fn: "count", Src: "b", New: "n"}}),
		testChain(seed("a", "http://p/x", "b"), HeadOp{K: 5}, expand("a", "http://p/y", "c")),
		testChain(seed("a", "http://p/x", "b"), JoinOp{}),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("chain %d: invalid chain accepted", i)
		}
	}
}

func TestGeneratorColumnValidation(t *testing.T) {
	bad := [][]Op{
		{seed("a", "http://p/x", "b"), expand("ghost", "http://p/y", "c")},
		{seed("a", "http://p/x", "b"), expand("a", "http://p/y", "b")}, // duplicate target
		{seed("a", "http://p/x", "b"), FilterOp{Conds: []Condition{cond("ghost", "?ghost > 1")}}},
		{seed("a", "http://p/x", "b"), GroupByOp{Cols: []string{"ghost"}}, AggregationOp{Agg: AggSpec{Fn: "count", Src: "b", New: "n"}}},
		{seed("a", "http://p/x", "b"), GroupByOp{Cols: []string{"a"}}, AggregationOp{Agg: AggSpec{Fn: "count", Src: "ghost", New: "n"}}},
		{seed("a", "http://p/x", "b"), SelectColsOp{Cols: []string{"ghost"}}},
		{seed("a", "http://p/x", "b"), SortOp{Keys: []SortKey{{Col: "ghost"}}}},
	}
	for i, ops := range bad {
		if _, err := Generate(testChain(ops...)); err == nil {
			t.Errorf("ops %d: invalid chain generated without error", i)
		}
	}
}

func TestRenameVarDeep(t *testing.T) {
	m, err := Generate(testChain(
		seed("movie", "http://p/starring", "actor"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		FilterOp{Conds: []Condition{cond("n", "?n >= 5")}},
	))
	if err != nil {
		t.Fatal(err)
	}
	m.renameVar("actor", "person")
	q := sparql.Render(Translate(m))
	if strings.Contains(q, "?actor") {
		t.Fatalf("rename missed a reference:\n%s", q)
	}
	if !strings.Contains(q, "GROUP BY ?person") {
		t.Fatalf("grouping column not renamed:\n%s", q)
	}
}

func TestCloneModelIndependence(t *testing.T) {
	m, err := Generate(testChain(
		seed("movie", "http://p/starring", "actor"),
		expand("actor", "http://p/born", "place"),
	))
	if err != nil {
		t.Fatal(err)
	}
	c := cloneModel(m)
	c.renameVar("actor", "x")
	if q := sparql.Render(Translate(m)); strings.Contains(q, "?x") {
		t.Fatal("cloneModel shares state with the original")
	}
}

func TestNaiveOneSubqueryPerOperator(t *testing.T) {
	q := mustNaive(t, testChain(
		seed("movie", "http://p/starring", "actor"),
		expand("actor", "http://p/born", "place"),
		expand("movie", "http://p/title", "title"),
		FilterOp{Conds: []Condition{cond("place", `regex(str(?place), "US")`)}},
	))
	// Outer + 3 pattern subqueries + 1 filter subquery.
	if got := strings.Count(q, "SELECT"); got != 5 {
		t.Fatalf("SELECT count = %d, want 5:\n%s", got, q)
	}
}

func TestNaiveGroupingNestsEverything(t *testing.T) {
	q := mustNaive(t, testChain(
		seed("movie", "http://p/starring", "actor"),
		expand("actor", "http://p/born", "place"),
		GroupByOp{Cols: []string{"actor"}},
		AggregationOp{Agg: AggSpec{Fn: "count", Src: "movie", New: "n"}},
		FilterOp{Conds: []Condition{cond("n", "?n >= 3")}},
	))
	if !strings.Contains(q, "GROUP BY ?actor") {
		t.Fatalf("missing GROUP BY:\n%s", q)
	}
	if !strings.Contains(q, "FILTER ( "+rendered("?n >= 3")+" )") {
		t.Fatalf("missing filter on aggregate:\n%s", q)
	}
	// The group subquery contains the per-operator subqueries.
	gi := strings.Index(q, "GROUP BY")
	if strings.Count(q[:gi], "SELECT") < 3 {
		t.Fatalf("group subquery should nest the operator subqueries:\n%s", q)
	}
}

// key renders a canonical string for structural deduplication.
func (m *QueryModel) key() string {
	var sb strings.Builder
	for _, t := range m.Triples {
		sb.WriteString(t.Graph + " " + t.String() + "\n")
	}
	for _, f := range m.Filters {
		sb.WriteString(sparql.RenderExpression(f) + "\n")
	}
	return sb.String()
}

func TestModelKeyStableForDedup(t *testing.T) {
	m1, _ := Generate(testChain(seed("a", "http://p/x", "b")))
	m2, _ := Generate(testChain(seed("a", "http://p/x", "b")))
	if m1.key() != m2.key() {
		t.Fatal("identical models produced different keys")
	}
}

func TestValidColumn(t *testing.T) {
	for _, ok := range []string{"a", "actor_name", "_x", "A9"} {
		if !ValidColumn(ok) {
			t.Errorf("ValidColumn(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "9a", "a b", "a-b", "a:b", "?a"} {
		if ValidColumn(bad) {
			t.Errorf("ValidColumn(%q) = true", bad)
		}
	}
}
