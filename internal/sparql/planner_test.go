package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// plannerStore builds a store with skewed predicate distributions so that
// statistics-driven ordering is observable: "type" is common, "rare" is
// highly selective.
func plannerStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := st.Add("http://g", rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	typeP := rdf.NewIRI("http://p/type")
	nameP := rdf.NewIRI("http://p/name")
	rareP := rdf.NewIRI("http://p/rare")
	cls := rdf.NewIRI("http://c/thing")
	for i := 0; i < 200; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://s/%d", i))
		add(s, typeP, cls)
		add(s, nameP, rdf.NewLiteral(fmt.Sprintf("name%d", i)))
	}
	for i := 0; i < 3; i++ {
		add(rdf.NewIRI(fmt.Sprintf("http://s/%d", i)), rareP, rdf.NewLiteral("x"))
	}
	// Decimal scores of wildly different magnitudes: float accumulation
	// order is observable in SUM/AVG output, which the aggregate
	// canonicalization must make plan-invariant.
	scoreP := rdf.NewIRI("http://p/score")
	for i := 0; i < 50; i++ {
		v := "0.0001"
		if i%7 == 0 {
			v = "1000000000.5"
		}
		add(rdf.NewIRI(fmt.Sprintf("http://s/%d", i)), scoreP,
			rdf.NewTypedLiteral(v, "http://www.w3.org/2001/XMLSchema#decimal"))
	}
	return st
}

func TestExplainKeywordParses(t *testing.T) {
	q, err := Parse(`EXPLAIN PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain {
		t.Fatal("Explain flag not set")
	}
	q, err = Parse(`SELECT ?s WHERE { ?s <http://p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain {
		t.Fatal("Explain flag set without keyword")
	}
}

func TestPlannerOrdersByStats(t *testing.T) {
	st := plannerStore(t)
	eng := NewEngine(st)
	// Textually the common pattern comes first; the planner must run the
	// rare one first.
	rep, err := eng.Explain(`SELECT ?s ?n WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/name> ?n . ?s <http://p/rare> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.PlanText()
	rareAt := strings.Index(text, "rare")
	typeAt := strings.Index(text, "type")
	if rareAt < 0 || typeAt < 0 || rareAt > typeAt {
		t.Fatalf("rare pattern not ordered first:\n%s", text)
	}
	if rep.Rows != 3 {
		t.Fatalf("rows = %d, want 3", rep.Rows)
	}
}

func TestPlannerPrunesDeadColumns(t *testing.T) {
	st := plannerStore(t)
	eng := NewEngine(st)
	// ?x is a pure existence variable: used once, never projected. The plan
	// must schedule a prune and the results must match textual order.
	src := `SELECT ?n WHERE { ?s <http://p/rare> ?x . ?s <http://p/name> ?n }`
	rep, err := eng.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.PlanText(), "prune ?x") {
		t.Fatalf("no prune scheduled for ?x:\n%s", rep.PlanText())
	}
	assertPlannedMatchesTextual(t, st, src)
}

// assertPlannedMatchesTextual compares the planner's serialized results
// against textual-order evaluation (DisableReorder), byte for byte.
func assertPlannedMatchesTextual(t *testing.T, st *store.Store, src string) {
	t.Helper()
	opt := NewEngine(st)
	textual := NewEngine(st)
	textual.DisableReorder = true
	or, err := runQuery(opt, src)
	if err != nil {
		t.Fatalf("optimized: %v", err)
	}
	hr, err := runQuery(textual, src)
	if err != nil {
		t.Fatalf("textual order: %v", err)
	}
	ob, err := or.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ob) != string(hb) {
		t.Fatalf("planned results differ from textual order for %s:\nplanned: %s\ntextual: %s", src, ob, hb)
	}
}

func TestOptimizedMatchesHeuristicAcrossShapes(t *testing.T) {
	st := plannerStore(t)
	queries := []string{
		`SELECT ?s ?n WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/name> ?n } ORDER BY ?n LIMIT 10`,
		`SELECT DISTINCT ?s WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/rare> ?x }`,
		`SELECT ?s ?n WHERE { ?s <http://p/name> ?n . FILTER(?n != "name5") . ?s <http://p/type> <http://c/thing> }`,
		`SELECT ?s ?n ?x WHERE { ?s <http://p/name> ?n . OPTIONAL { ?s <http://p/rare> ?x } } ORDER BY ?s`,
		`SELECT ?s WHERE { { ?s <http://p/rare> ?x } UNION { ?s <http://p/type> <http://c/thing> . ?s <http://p/rare> ?y } }`,
		`SELECT ?n (COUNT(?s) AS ?c) WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/name> ?n } GROUP BY ?n HAVING (COUNT(?s) > 0) ORDER BY ?n LIMIT 5`,
		`SELECT ?s ?n WHERE { { SELECT ?s WHERE { ?s <http://p/rare> ?x } } ?s <http://p/name> ?n }`,
		// A sliced subquery picks which rows survive by order; the selected
		// bag must be plan-invariant (see canonicalizeRows).
		`SELECT ?s ?n WHERE { { SELECT ?s WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/name> ?m } LIMIT 5 } ?s <http://p/name> ?n }`,
		`SELECT ?s ?o WHERE { GRAPH <http://g> { ?s <http://p/rare> ?o } }`,
		`SELECT ?s ?y WHERE { ?s <http://p/rare> ?x . BIND(STR(?x) AS ?y) }`,
		`SELECT * WHERE { ?s <http://p/rare> ?x . ?s <http://p/name> ?n }`,
		// Order-sensitive aggregates: SUM/AVG accumulate floats in input
		// order and SAMPLE takes the first group row, so the group input
		// must be canonicalized under every plan (not just the output).
		`SELECT (SUM(?v) AS ?t) (AVG(?v) AS ?a) WHERE { ?s <http://p/type> <http://c/thing> . ?s <http://p/score> ?v . ?s <http://p/name> ?n }`,
		`SELECT ?n (SAMPLE(?v) AS ?any) WHERE { ?s <http://p/score> ?v . ?s <http://p/type> <http://c/thing> . ?s <http://p/name> ?n } GROUP BY ?n ORDER BY ?n LIMIT 5`,
	}
	for _, q := range queries {
		assertPlannedMatchesTextual(t, st, q)
	}
}

func TestPlanCacheReoptimizesOnEpochMove(t *testing.T) {
	st := plannerStore(t)
	eng := NewEngine(st)
	eng.EnableCache(16, 0) // plan cache only
	src := `SELECT ?s WHERE { ?s <http://p/type> <http://c/thing> } LIMIT 1`

	q1, qp1, err := eng.planned(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 == nil {
		t.Fatal("no plan built")
	}
	if _, qpAgain, _ := eng.planned(context.Background(), src); qpAgain != qp1 {
		t.Fatal("plan not reused at a stable epoch")
	}

	// Shift the distribution enough to move the stats epoch.
	before := st.StatsEpoch()
	for i := 0; i < 500; i++ {
		if err := st.Add("http://g2", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://t/%d", i)),
			P: rdf.NewIRI("http://p/other"),
			O: rdf.NewLiteral("v"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st.StatsEpoch() == before {
		t.Fatal("bulk insert did not move the stats epoch")
	}
	q2, qp2, err := eng.planned(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q1 {
		t.Fatal("parse not reused from the plan cache")
	}
	if qp2 == qp1 {
		t.Fatal("plan not re-optimized after the stats epoch moved")
	}
	if qp2.epoch != st.StatsEpoch() {
		t.Fatalf("new plan epoch = %d, store epoch = %d", qp2.epoch, st.StatsEpoch())
	}
}

func TestExplainThroughServingPath(t *testing.T) {
	st := plannerStore(t)
	eng := NewEngine(st)
	eng.EnableCache(16, 1<<12)
	req := Request{Query: `EXPLAIN SELECT ?s WHERE { ?s <http://p/rare> ?x }`, Serving: true, JSON: true}
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows == 0 || !strings.Contains(string(resp.Body), "scan") {
		t.Fatalf("explain body missing plan lines: rows=%d body=%s", resp.Rows, resp.Body)
	}
	if resp.Info.Hit {
		t.Fatal("explain must not be served from the result cache")
	}
	// Twice: still never a cache hit.
	resp, err = eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Info.Hit {
		t.Fatal("repeated explain served from cache")
	}
}

func TestExplainRecordsActuals(t *testing.T) {
	st := plannerStore(t)
	eng := NewEngine(st)
	rep, err := eng.Explain(`SELECT ?s ?n WHERE { ?s <http://p/rare> ?x . ?s <http://p/name> ?n . FILTER(?n != "name0") }`)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.PlanText()
	if !strings.Contains(text, "actual=3") { // rare scan matches 3 subjects
		t.Fatalf("scan actual missing:\n%s", text)
	}
	if !strings.Contains(text, "filter") || !strings.Contains(text, "actual=2") {
		t.Fatalf("filter actual missing:\n%s", text)
	}
}
