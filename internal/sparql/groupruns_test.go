package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// groupStore holds keys that must stay apart: "1", "01" and "1.0" compare
// equal as numbers and "NaN" equals nothing, yet each is its own group
// key, next to an IRI and a plain literal. It has enough subjects for
// parallel scans and joins.
func groupStore(t testing.TB) *store.Store {
	t.Helper()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	values := []rdf.Term{
		rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewTypedLiteral("01", rdf.XSDInteger),
		rdf.NewTypedLiteral("1.0", rdf.XSDDecimal), rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		rdf.NewInteger(2), ex("o"), rdf.NewLiteral("x"),
	}
	var triples []rdf.Triple
	for i := 0; i < 5000; i++ {
		s := ex(fmt.Sprintf("s%d", i))
		triples = append(triples,
			rdf.Triple{S: s, P: ex("v"), O: values[i%len(values)]},
			rdf.Triple{S: s, P: ex("w"), O: rdf.NewInteger(int64(i % 5))})
		if i%4 != 0 {
			triples = append(triples, rdf.Triple{S: s, P: ex("tag"), O: ex(fmt.Sprintf("t%d", i%3))})
		}
	}
	st := store.New()
	if err := st.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return st
}

// hashAggregate is the reference aggregate is held to: grouping by hash,
// as the engine did before groups were runs. It sorts the input as the
// engine did before aggregating, hashes each row's key ids into a map of
// groups in first-appearance order, and evaluates HAVING and the
// projections, resolved against the input's layout, over each group: a key
// row holding the group's keys and nothing else, and a header whose order
// lists the group's rows. It returns the projected rows as term text.
func hashAggregate(ev *evaluator, q *Query, sols *idRows) ([][]string, error) {
	if err := ev.sortRowsBy(sols, aggregationVars(q)); err != nil {
		return nil, err
	}
	sols.number()
	type entry struct {
		key  []store.ID
		rows []uint64
	}
	var groups []*entry
	if len(q.GroupBy) == 0 {
		groups = []*entry{{key: make([]store.ID, sols.width()), rows: slices.Clone(sols.order)}}
	} else {
		cols := sols.colsOf(q.GroupBy)
		index := map[string]*entry{}
		var kb []byte
		rows := sols.cursor(0)
		for i := 0; i < sols.n; i++ {
			row := rows.next()
			kb = appendIDKey(kb[:0], row, cols)
			g := index[string(kb)]
			if g == nil {
				g = &entry{key: make([]store.ID, sols.width())}
				for _, c := range cols {
					if c >= 0 {
						g.key[c] = row[c]
					}
				}
				index[string(kb)] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, sols.order[i])
		}
	}
	var out [][]string
	for _, g := range groups {
		header := sols.alias()
		header.order, header.n = g.rows, len(g.rows)
		ctx := &evalCtx{cells: g.key, groupSrc: header, dict: ev.dict, cache: ev.cache}
		keep := true
		for _, h := range q.Having {
			keep = keep && evalBool(ev.dict.resolve(h, sols.cols), ctx)
		}
		if !keep {
			continue
		}
		var row []string
		for _, it := range q.Items {
			e := it.Expr
			if e == nil {
				e = ExVar{Name: it.Var}
			}
			v, _ := evalExpr(ev.dict.resolve(e, sols.cols), ctx)
			row = append(row, v.term().String())
		}
		out = append(out, row)
	}
	return out, nil
}

// bagText renders rows as their sorted lines.
func bagText(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, " ")
	}
	slices.Sort(out)
	return out
}

// TestGroupsAreRuns: GROUP BY answers, cut from runs of the sorted input,
// are the bags the hash-grouping reference gives, serially and in
// parallel: over keys that mix store ids with ids BIND mints, unbound keys
// from OPTIONAL, numerically equal but distinct literals, HAVING over a
// key, an implicit group and an empty input.
func TestGroupsAreRuns(t *testing.T) {
	const ex = "http://ex/"
	queries := []string{
		`SELECT ?k (COUNT(*) AS ?n) (SAMPLE(?s) AS ?x) (MIN(?s) AS ?lo) WHERE { ?s <` + ex + `v> ?k } GROUP BY ?k`,
		`SELECT ?k (COUNT(?s) AS ?n) (SUM(?w) AS ?sum) WHERE { ?s <` + ex + `w> ?w . BIND(?w * 2 AS ?k) } GROUP BY ?k`,
		`SELECT ?k (COUNT(*) AS ?n) WHERE { { ?s <` + ex + `v> ?k } UNION { ?s <` + ex + `w> ?w . BIND(?w - 1 AS ?k) } } GROUP BY ?k`,
		`SELECT ?k (COUNT(?s) AS ?n) (COUNT(DISTINCT ?v) AS ?d) WHERE { ?s <` + ex + `v> ?v OPTIONAL { ?s <` + ex + `tag> ?k } } GROUP BY ?k`,
		`SELECT ?k ?v (COUNT(*) AS ?n) (MAX(?w) AS ?hi) WHERE { ?s <` + ex + `v> ?v . ?s <` + ex + `w> ?w OPTIONAL { ?s <` + ex + `tag> ?k } } GROUP BY ?k ?v`,
		`SELECT ?k (COUNT(*) AS ?n) WHERE { ?s <` + ex + `v> ?k } GROUP BY ?k HAVING (STR(?k) != "1" && COUNT(*) > 700)`,
		`SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?k) AS ?d) (AVG(?w) AS ?avg) WHERE { ?s <` + ex + `v> ?k . ?s <` + ex + `w> ?w }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s <` + ex + `none> ?k }`,
		`SELECT ?k (COUNT(*) AS ?n) WHERE { ?s <` + ex + `none> ?k } GROUP BY ?k`,
	}
	st := groupStore(t)
	for _, workers := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = workers
		for _, src := range queries {
			res, err := runQuery(e, src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			got := make([][]string, len(res.Rows))
			for i, row := range res.Rows {
				for _, term := range row {
					got[i] = append(got[i], term.String())
				}
			}
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			want := func() [][]string {
				qp := e.buildPlan(q, false, true)
				e.Store.RLock()
				defer e.Store.RUnlock()
				ev := e.newEvaluator(context.Background(), false)
				sols, err := qp.root.where.rows(ev)
				if err != nil {
					t.Fatal(err)
				}
				want, err := hashAggregate(ev, q, sols)
				if err != nil {
					t.Fatal(err)
				}
				return want
			}()
			if g, w := bagText(got), bagText(want); !slices.Equal(g, w) {
				t.Errorf("Parallelism %d, %s:\n got %q\nwant %q", workers, src, g, w)
			}
		}
	}
}

// TestCountDistinctStar: COUNT(DISTINCT *) counts a group's distinct
// solutions over every variable in scope, the pruned-looking ones
// included, and not the parser's internal path variables.
func TestCountDistinctStar(t *testing.T) {
	const starring, born = "<http://ex/starring>", "<http://ex/birthPlace>"
	extra := movieStore(t) // and m1 stars a3, born in the US like a1
	if err := extra.Add(testGraph, rdf.Triple{S: rdf.NewIRI("http://ex/m1"), P: rdf.NewIRI("http://ex/starring"), O: rdf.NewIRI("http://ex/a3")}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st   *store.Store
		src  string
		want [][]string
	}{
		{movieStore(t), `SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + ` ?a }`, [][]string{{"5"}}},
		{movieStore(t), `SELECT ?a (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + ` ?a } GROUP BY ?a`,
			[][]string{{"<http://ex/a1>", "2"}, {"<http://ex/a2>", "2"}, {"<http://ex/a3>", "1"}}},
		{movieStore(t), `SELECT (COUNT(*) AS ?all) (COUNT(DISTINCT *) AS ?n) WHERE { { ?m ` + starring + ` ?a } UNION { ?m ` + starring + ` ?a } }`,
			[][]string{{"10", "5"}}},
		{movieStore(t), `SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + ` ?a } HAVING (COUNT(DISTINCT *) > 4)`, [][]string{{"5"}}},
		// (m1, a1, US) and (m1, a3, US) differ only in ?a.
		{extra, `SELECT ?m ?c (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + ` ?a . ?a ` + born + ` ?c } GROUP BY ?m ?c`,
			[][]string{
				{"<http://ex/m1>", "<http://ex/UK>", "1"}, {"<http://ex/m1>", "<http://ex/US>", "2"}, {"<http://ex/m2>", "<http://ex/US>", "1"},
				{"<http://ex/m3>", "<http://ex/UK>", "1"}, {"<http://ex/m4>", "<http://ex/US>", "1"},
			}},
		// Through a1 and a3, m1 reaches the US twice: the path's inner
		// node is no variable of the solution.
		{extra, `SELECT (COUNT(*) AS ?all) (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + `/` + born + `* ?c }`, [][]string{{"12", "11"}}},
		{extra, `SELECT (COUNT(*) AS ?all) (COUNT(DISTINCT *) AS ?n) WHERE { ?m ` + starring + `/` + born + ` ?c }`, [][]string{{"6", "5"}}},
	} {
		for _, workers := range []int{1, 4} {
			e := NewEngine(tc.st)
			e.Parallelism = workers
			got := queryRows(t, e, tc.src)
			for _, row := range got {
				for j, cell := range row {
					row[j] = strings.TrimSuffix(strings.TrimPrefix(cell, `"`), `"^^<`+rdf.XSDInteger+`>`)
				}
			}
			if !slices.EqualFunc(got, tc.want, slices.Equal) {
				t.Errorf("Parallelism %d, %s: got %v, want %v", workers, tc.src, got, tc.want)
			}
		}
	}
}

// TestHavingReadsAggregatesNotAliases pins the docs' Aggregation rule:
// HAVING runs before the SELECT clause, so it repeats the aggregate; the
// alias is unbound there and keeps no group.
func TestHavingReadsAggregatesNotAliases(t *testing.T) {
	e := NewEngine(movieStore(t))
	const shape = `SELECT ?actor (COUNT(DISTINCT ?movie) AS ?n) WHERE { ?movie <http://ex/starring> ?actor } GROUP BY ?actor HAVING (%s >= 2)`
	got := queryRows(t, e, fmt.Sprintf(shape, "COUNT(DISTINCT ?movie)"))
	if len(got) != 2 || got[0][0] != "<http://ex/a1>" || got[1][0] != "<http://ex/a2>" {
		t.Errorf("HAVING over the aggregate kept %v, want a1 and a2", got)
	}
	if got := queryRows(t, e, fmt.Sprintf(shape, "?n")); len(got) != 0 {
		t.Errorf("HAVING over the alias kept %v, want nothing", got)
	}
}

// TestAggregateAllocatesNothingPerGroup: grouping 10,000 rows into 1,000
// groups and aggregating each allocates the input's header, the sort's
// order, the output and a constant, not an object per group: COUNT(*)
// counts the run, and a general aggregate reads the group's rows off a
// cursor into a scratch slice its context keeps.
func TestAggregateAllocatesNothingPerGroup(t *testing.T) {
	const rows, groups = 10_000, 1_000
	sd := store.NewDictionary()
	for i := 0; i < groups; i++ {
		sd.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/k%d", i)))
	}
	cells := make([]store.ID, 0, 2*rows)
	for i := 0; i < rows; i++ {
		cells = append(cells, store.ID(1+i*7%groups), store.ID(1+i%groups))
	}
	for _, agg := range []string{"COUNT(*)", "MIN(?v)", "COUNT(STR(?v))"} {
		q, err := Parse(`SELECT ?k (` + agg + ` AS ?n) WHERE { } GROUP BY ?k`)
		if err != nil {
			t.Fatal(err)
		}
		ev := &evaluator{dict: newEvalDict(sd), cache: &regexCache{}}
		var out *idRows
		allocs := testing.AllocsPerRun(5, func() {
			in := newIDRows([]string{"k", "v"})
			in.setRows(cells)
			in.n = rows
			if out, err = ev.aggregate(q, in); err != nil {
				t.Fatal(err)
			}
		})
		if out.n != groups {
			t.Fatalf("%s: %d groups, want %d", agg, out.n, groups)
		}
		// 31 measured for COUNT(*), 40 and 42 for the others; a context per
		// group allocated 7 or more per group.
		if allocs > 60 {
			t.Errorf("%s: aggregate allocates %v objects for %d groups", agg, allocs, groups)
		}
	}
}

// TestUngroupedVariablesReadUnbound pins aggregation's scope: outside an
// aggregate, HAVING and the projections see only the group keys, so a
// non-key variable reads unbound there; inside one, the argument reads
// every row of the group, and MIN, MAX, SUM, SAMPLE and COUNT(expr) skip
// the OPTIONAL-unbound cells and read BIND values the store does not hold.
func TestUngroupedVariablesReadUnbound(t *testing.T) {
	const starring, born = "<http://ex/starring>", "<http://ex/birthPlace>"
	integer := func(n string) string { return `"` + n + `"^^<` + rdf.XSDInteger + `>` }
	for _, tc := range []struct {
		src  string
		want [][]string
	}{
		{`SELECT ?m (STR(?a) AS ?s) WHERE { ?m ` + starring + ` ?a } GROUP BY ?m`,
			[][]string{{"<http://ex/m1>", ""}, {"<http://ex/m2>", ""}, {"<http://ex/m3>", ""}, {"<http://ex/m4>", ""}}},
		{`SELECT ?m WHERE { ?m ` + starring + ` ?a } GROUP BY ?m HAVING (BOUND(?a))`, [][]string{}},
		{`SELECT ?m WHERE { ?m ` + starring + ` ?a } GROUP BY ?m HAVING (BOUND(?m) && !BOUND(?a))`,
			[][]string{{"<http://ex/m1>"}, {"<http://ex/m2>"}, {"<http://ex/m3>"}, {"<http://ex/m4>"}}},
		// ?len is minted by BIND and unbound for m4, which has no title;
		// ?g is unbound for m3 and m4, which have no genre.
		{`SELECT ?c (MIN(?len) AS ?lo) (MAX(?len) AS ?hi) (SUM(?len) AS ?sum) (SAMPLE(?g) AS ?g1) (COUNT(STR(?g)) AS ?ng) WHERE {
			?m ` + starring + ` ?a . ?a ` + born + ` ?c .
			OPTIONAL { ?m <http://ex/genre> ?g } OPTIONAL { ?m <http://ex/title> ?t }
			BIND(STRLEN(?t) AS ?len)
		} GROUP BY ?c`,
			[][]string{
				{"<http://ex/UK>", integer("5"), integer("5"), integer("10"), "<http://ex/Drama>", integer("1")},
				{"<http://ex/US>", integer("5"), integer("6"), integer("11"), "<http://ex/Drama>", integer("2")},
			}},
	} {
		for _, workers := range []int{1, 4} {
			e := NewEngine(movieStore(t))
			e.Parallelism = workers
			if got := queryRows(t, e, tc.src); !slices.EqualFunc(got, tc.want, slices.Equal) {
				t.Errorf("Parallelism %d, %s: got %q, want %q", workers, tc.src, got, tc.want)
			}
		}
	}
}
