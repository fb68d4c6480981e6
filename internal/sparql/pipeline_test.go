package sparql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

const (
	pipeGraphA = "http://test/a"
	pipeGraphB = "http://test/b"
)

func pipeIRI(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }

// pipeStore is wide enough to cross both morsel thresholds — 9,000 matches
// of p (a partitioned scan) fanning out past minParallelRows — and holds
// the odd triples the shape tests need: terms used as subject and predicate
// of one triple, self loops, literals that make arithmetic error, and a
// second graph repeating part of the first.
func pipeStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	var a, b []rdf.Triple
	for i := 0; i < 9000; i++ {
		s := pipeIRI(fmt.Sprintf("s%d", i))
		a = append(a,
			rdf.Triple{S: s, P: pipeIRI("p"), O: pipeIRI(fmt.Sprintf("o%d", i%50))},
			rdf.Triple{S: s, P: pipeIRI("q"), O: rdf.NewInteger(int64(i % 7))})
		if i%40 == 0 {
			a = append(a, rdf.Triple{S: s, P: pipeIRI("label"), O: rdf.NewLiteral(fmt.Sprintf("name %d", i))})
		}
		if i < 200 {
			b = append(b, rdf.Triple{S: s, P: pipeIRI("p"), O: pipeIRI(fmt.Sprintf("o%d", i%50))})
		}
	}
	for j := 0; j < 50; j++ {
		o := pipeIRI(fmt.Sprintf("o%d", j))
		a = append(a, rdf.Triple{S: o, P: pipeIRI("r"), O: pipeIRI(fmt.Sprintf("c%d", j%5))})
		b = append(b, rdf.Triple{S: o, P: pipeIRI("r"), O: pipeIRI(fmt.Sprintf("d%d", j%3))})
	}
	for k := 0; k < 5; k++ {
		n := pipeIRI(fmt.Sprintf("n%d", k))
		a = append(a,
			rdf.Triple{S: n, P: n, O: pipeIRI(fmt.Sprintf("v%d", k))},
			rdf.Triple{S: n, P: pipeIRI("loop"), O: n},
			rdf.Triple{S: n, P: pipeIRI("loop"), O: pipeIRI("elsewhere")})
	}
	if err := st.AddAll(pipeGraphA, a); err != nil {
		t.Fatal(err)
	}
	if err := st.AddAll(pipeGraphB, b); err != nil {
		t.Fatal(err)
	}
	return st
}

func pipeEvaluator(st *store.Store, workers int) *evaluator {
	return &evaluator{
		store:   st,
		dict:    newEvalDict(st.Dict()),
		cache:   &regexCache{},
		workers: workers,
	}
}

// pipeSegment parses a group body of triple patterns and filters and plans
// it as one segment over graphs, its steps in the given order (nil:
// textual), after an element that may have bound the variables in. It
// returns the segment, its patterns in step order and its filters.
func pipeSegment(t testing.TB, body string, graphs, in []string, order []int) (*bgpOp, []TriplePattern, []Expression) {
	t.Helper()
	q, err := Parse(`PREFIX ex: <http://ex/> SELECT * WHERE { ` + body + ` }`)
	if err != nil {
		t.Fatal(err)
	}
	var pats []TriplePattern
	var filters []Expression
	for _, el := range q.Where.Elems {
		switch e := el.(type) {
		case BGPElem:
			pats = append(pats, e.Pattern)
		case FilterElem:
			filters = append(filters, e.Cond)
		default:
			t.Fatalf("segment body holds %T", el)
		}
	}
	if order != nil {
		ordered := make([]TriplePattern, len(pats))
		for step, pi := range order {
			ordered[step] = pats[pi]
		}
		pats = ordered
	}
	gs := newGroupScope(q.Where)
	for _, v := range in {
		gs.bound[v] = true
	}
	p := &planner{qp: &queryPlan{}, uses: map[string]int{}}
	op, _ := p.planBGP(pats, graphs, &gs, false)
	return op, pats, filters
}

// pipeInput builds an input batch from terms; an unbound term is an
// unbound cell.
func pipeInput(st *store.Store, vars []string, rows ...[]rdf.Term) *idRows {
	in := newIDRows(vars)
	for _, row := range rows {
		ids := make([]store.ID, len(row))
		for j, term := range row {
			if term.IsBound() {
				ids[j], _ = st.Dict().Lookup(term)
			}
		}
		in.appendRow(ids)
	}
	return in
}

// refBGP is the nested-loop reference the fused pipeline must reproduce row
// for row: one pattern at a time in the given order, every intermediate
// materialised, each input row probed through store.MatchAny with its
// unbound cells as wildcards, repeated variables checked position by
// position, each filter applied (over decoded Binding maps) after the first
// pattern at which all its variables are final, the dropped columns removed
// at the end. A variable is final once a pattern so far binds it, or once
// the input has it and no later pattern mentions it. It returns the output
// and the filters it did not consume.
func refBGP(st *store.Store, graphs []string, in *idRows, pats []TriplePattern, filters []Expression, drop []string) (*idRows, []Expression) {
	dict := newEvalDict(st.Dict())
	vars := append([]string(nil), in.vars...)
	mentions := func(ps []TriplePattern, v string) bool {
		return slices.ContainsFunc(ps, func(p TriplePattern) bool { return slices.Contains(p.AppendVars(nil), v) })
	}
	var rows [][]store.ID
	for _, row := range listRows(in) {
		rows = append(rows, append([]store.ID(nil), row...))
	}
	colOf := func(name string) int {
		for c, v := range vars {
			if v == name {
				return c
			}
		}
		vars = append(vars, name)
		return len(vars) - 1
	}
	for step, pat := range pats {
		nodes := [3]Node{pat.S, pat.P, pat.O}
		cols := [3]int{-1, -1, -1}
		for k, n := range nodes {
			if n.IsVar {
				cols[k] = colOf(n.Var)
			}
		}
		var next [][]store.ID
		for _, row := range rows {
			row = append(row, make([]store.ID, len(vars)-len(row))...)
			var key [3]store.ID
			known := true
			for k, n := range nodes {
				if n.IsVar {
					key[k] = row[cols[k]]
				} else {
					id, ok := st.Dict().Lookup(n.Term)
					known = known && ok
					key[k] = id
				}
			}
			if !known {
				continue
			}
			st.MatchAny(graphs, store.IDTriple{S: key[0], P: key[1], O: key[2]}, func(m store.IDTriple) bool {
				out := append([]store.ID(nil), row...)
				for k, id := range [3]store.ID{m.S, m.P, m.O} {
					if cols[k] < 0 {
						continue
					}
					if out[cols[k]] != 0 && out[cols[k]] != id {
						return true
					}
					out[cols[k]] = id
				}
				next = append(next, out)
				return true
			})
		}
		rows = next
		var waiting []Expression
		for _, f := range filters {
			if slices.ContainsFunc(exprVars(f), func(v string) bool {
				return !mentions(pats[:step+1], v) && (!slices.Contains(in.vars, v) || mentions(pats[step+1:], v))
			}) {
				waiting = append(waiting, f)
				continue
			}
			var kept [][]store.ID
			for _, row := range rows {
				b := Binding{}
				for c, id := range row {
					b[vars[c]] = dict.decode(id)
				}
				if EvalCondition(f, b) {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		filters = waiting
	}
	var outVars []string
	var outCols []int
	for c, v := range vars {
		if !slices.Contains(drop, v) {
			outVars = append(outVars, v)
			outCols = append(outCols, c)
		}
	}
	out := newIDRows(outVars)
	for _, row := range rows {
		row = append(row, make([]store.ID, len(vars)-len(row))...)
		cells := make([]store.ID, len(outCols))
		for i, c := range outCols {
			cells[i] = row[c]
		}
		out.appendRow(cells)
	}
	return out, filters
}

// TestPipelineMatchesNestedLoop runs segment shapes through the fused
// pipeline at parallelism 1, 2 and 4 and requires the reference's rows in
// the reference's order, and the same unconsumed filters.
func TestPipelineMatchesNestedLoop(t *testing.T) {
	st := pipeStore(t)
	unbound := rdf.Term{}
	optionalInput := func() *idRows {
		// As an OPTIONAL leaves it: ?o bound in some rows, unbound in others.
		var rows [][]rdf.Term
		for i := 0; i < 3000; i++ {
			o := unbound
			if i%3 != 0 {
				o = pipeIRI(fmt.Sprintf("o%d", i%50))
			}
			rows = append(rows, []rdf.Term{pipeIRI(fmt.Sprintf("s%d", i)), o})
		}
		return pipeInput(st, []string{"s", "o"}, rows...)
	}
	a := []string{pipeGraphA}
	cases := []struct {
		name   string
		graphs []string
		in     func() *idRows
		body   string
		order  []int      // step order (nil: textual)
		drop   [][]string // prune schedule, per step
		rows   int        // expected output rows
		left   int        // expected unconsumed filters
	}{
		{name: "scan then probes", graphs: a, in: unitSolution,
			body: `?s ex:p ?o . ?o ex:r ?c . ?s ex:q ?n`, rows: 9000},
		{name: "optional-unbound column reused", graphs: a, in: optionalInput,
			// A row whose ?o is unbound probes with a wildcard and takes the
			// match's value; the next pattern then sees it bound.
			body: `?s ex:p ?o . ?o ex:r ?c`, rows: 3000},
		{name: "optional-unbound column as the only link", graphs: a, in: optionalInput,
			body: `?o ex:r ?c`, rows: 2000 + 1000*50},
		{name: "repeated variable ?x ?x ?o", graphs: a, in: unitSolution,
			body: `?x ?x ?o`, rows: 5},
		{name: "repeated variable ?s ?p ?s", graphs: a, in: unitSolution,
			body: `?s ?p ?s`, rows: 5},
		{name: "repeated variable under a bound column", graphs: a,
			in: func() *idRows {
				return pipeInput(st, []string{"x"}, []rdf.Term{pipeIRI("n1")}, []rdf.Term{unbound}, []rdf.Term{pipeIRI("s1")})
			},
			body: `?x ex:loop ?x . ?x ?x ?v`, rows: 1 + 5},
		{name: "constant absent from the dictionary", graphs: a, in: unitSolution,
			body: `?s ex:p ?o . ?s ex:nowhere ?z . ?o ex:r ?c`, rows: 0},
		{name: "filter that errors is false", graphs: a, in: unitSolution,
			// ?o is an IRI: ?o + 1 is a type error on every row.
			body: `?s ex:p ?o . FILTER(?o + 1 > 0) . ?s ex:q ?n`, rows: 0},
		{name: "filter between steps", graphs: a, in: unitSolution,
			body: `?s ex:q ?n . FILTER(?n >= 5) . ?s ex:p ?o . ?o ex:r ?c . FILTER(?c != ex:c0)`,
			rows: 2056},
		{name: "filter over a column dropped later", graphs: a, in: unitSolution,
			body:  `?s ex:q ?n . ?s ex:p ?o . ?o ex:r ?c . FILTER(?n < 2)`,
			order: []int{0, 1, 2}, drop: [][]string{nil, nil, {"n", "o"}}, rows: 2572},
		{name: "planned order differs from text", graphs: a, in: unitSolution,
			body:  `?o ex:r ?c . ?s ex:q ?n . ?s ex:p ?o`,
			order: []int{2, 0, 1}, drop: [][]string{nil, {"c"}, nil}, rows: 9000},
		{name: "empties at step two", graphs: a, in: unitSolution,
			body: `?s ex:label ?l . ?l ex:p ?o . ?s ex:q ?n . FILTER(?n > 100)`, rows: 0},
		{name: "filter never ready stays with the group", graphs: a, in: unitSolution,
			body: `?s ex:label ?l . FILTER(?elsewhere > 1)`, rows: 225, left: 1},
		{name: "cross product", graphs: a, in: unitSolution,
			body: `?s ex:label ?l . ?o ex:r ex:c1`, rows: 225 * 10},
		{name: "cross product under many rows", graphs: a, in: optionalInput,
			body: `?n ex:loop ex:elsewhere`, rows: 3000 * 5},
		{name: "two graphs keep bag multiplicity", graphs: []string{pipeGraphA, pipeGraphB, "http://test/absent"}, in: unitSolution,
			body: `?s ex:p ?o . ?o ex:r ?c`, rows: 9200 * 2},
		{name: "every graph", graphs: nil, in: unitSolution,
			body: `?s ex:p ?o . ?o ex:r ?c . FILTER(?c = ex:d1)`, rows: 3128},
	}
	for _, tc := range cases {
		op, pats, filters := pipeSegment(t, tc.body, tc.graphs, tc.in().vars, tc.order)
		op.drop = slices.Concat(tc.drop...)
		want, wantLeft := refBGP(st, tc.graphs, tc.in(), pats, filters, op.drop)
		if want.n != tc.rows || len(wantLeft) != tc.left {
			t.Errorf("%s: reference has %d rows and %d filters left, the case expects %d and %d", tc.name, want.n, len(wantLeft), tc.rows, tc.left)
			continue
		}
		for _, workers := range []int{1, 2, 4} {
			ev := pipeEvaluator(st, workers)
			got, err := ev.evalBGP(tc.in(), op)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(got.vars, want.vars) && (len(got.vars) > 0 || len(want.vars) > 0) {
				t.Errorf("%s, %d workers: columns %v, want %v", tc.name, workers, got.vars, want.vars)
				continue
			}
			if got.n != want.n || !slices.Equal(slices.Concat(got.segs...), slices.Concat(want.segs...)) {
				t.Errorf("%s, %d workers: %d rows differ from the reference's %d (rows or order)", tc.name, workers, got.n, want.n)
			}
			if left := len(filters) - len(op.filters); left != len(wantLeft) {
				t.Errorf("%s, %d workers: %d filters left, want %d", tc.name, workers, left, len(wantLeft))
			}
		}
	}
}

// TestPipelineRegexOnConcurrentWorkers evaluates one regex filter on four
// workers at once — the test is the scheduler, so the overlap does not
// depend on GOMAXPROCS — and requires the serial output. Under -race this
// is the gate on filters running off the query goroutine: each worker owns
// its regex memo and only reads the dictionary.
func TestPipelineRegexOnConcurrentWorkers(t *testing.T) {
	st := pipeStore(t)
	op, _, _ := pipeSegment(t, `?s ex:p ?o . FILTER(regex(str(?o), "o1[0-9]$")) . ?o ex:r ?c`, []string{pipeGraphA}, []string{"s"}, nil)
	in := func() *idRows {
		var rows [][]rdf.Term
		for i := 0; i < 4000; i++ {
			rows = append(rows, []rdf.Term{pipeIRI(fmt.Sprintf("s%d", i))})
		}
		return pipeInput(st, []string{"s"}, rows...)
	}
	want, err := pipeEvaluator(st, 1).evalBGP(in(), op)
	if err != nil {
		t.Fatal(err)
	}
	if want.n != 800 {
		t.Fatalf("serial run kept %d rows, want 800", want.n)
	}

	const workers = 4
	cur := in()
	ev := pipeEvaluator(st, workers)
	p := ev.compilePipeline(cur, op)
	parts := make([]pipePart, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := p.worker(&ticker{slot: i})
			w.runRows(cur, i*cur.n/workers, (i+1)*cur.n/workers)
			if parts[i] = w.out.take(); w.err != nil {
				t.Error(w.err)
			}
		}()
	}
	wg.Wait()
	got := mergePipeParts(p.outVars, parts)
	if got.n != want.n || !slices.Equal(slices.Concat(got.segs...), slices.Concat(want.segs...)) {
		t.Fatalf("four concurrent workers kept %d rows, the serial run %d (rows or order differ)", got.n, want.n)
	}
	seen := map[*regexCache]bool{ev.cache: true}
	for _, w := range p.workers {
		if w.ctx.cache == nil || seen[w.ctx.cache] {
			t.Fatal("a pool worker shares its regex memo")
		}
		seen[w.ctx.cache] = true
	}
}

// TestExplainActualsAcrossParallelism: per-step and per-filter actuals are
// sums of per-worker counters, so the rendered plan — estimates, actuals,
// and which operators never ran — is identical at parallelism 1 and 4.
func TestExplainActualsAcrossParallelism(t *testing.T) {
	st := pipeStore(t)
	for _, q := range []string{
		`SELECT ?s ?c WHERE { ?s <http://ex/p> ?o . ?o <http://ex/r> ?c . ?s <http://ex/q> ?n . FILTER(?n >= 5) FILTER(?c != <http://ex/c0>) }`,
		`SELECT ?s WHERE { ?s <http://ex/label> ?l . ?l <http://ex/p> ?o . ?s <http://ex/q> ?n . FILTER(?n > 100) }`,
		`SELECT ?s ?l WHERE { ?s <http://ex/p> ?o . OPTIONAL { ?s <http://ex/label> ?l } ?o <http://ex/r> ?c . FILTER(?c = <http://ex/c2>) }`,
	} {
		var texts []string
		for _, workers := range []int{1, 4} {
			e := NewEngine(st)
			e.DefaultGraphs = []string{pipeGraphA}
			e.Parallelism = workers
			e.DisableWCOJ = true
			rep, err := e.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, rep.PlanText())
		}
		if texts[0] != texts[1] {
			t.Errorf("plan with actuals differs between parallelism 1 and 4 for %s:\n%s\n---\n%s", q, texts[0], texts[1])
		}
	}
}

// TestPipelineStopsInsideOneMorsel: a single source row in front of a
// cross-product fan-out is one morsel however many workers there are, so
// stopping it is up to the ticks inside the chain. Cancellation, the
// engine deadline and a context deadline must each end the query within a
// ticker period, not at the next morsel boundary.
func TestPipelineStopsInsideOneMorsel(t *testing.T) {
	st := pipeStore(t)
	q := `SELECT * WHERE { <http://ex/o1> <http://ex/r> ?c . ?a <http://ex/p> ?b . ?d <http://ex/q> ?e . ?f <http://ex/p> ?g }`
	stops := []struct {
		name string
		arm  func(e *Engine) (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func(*Engine) (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(10*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
		{"engine deadline", func(e *Engine) (context.Context, context.CancelFunc) {
			e.SetTimeout(10 * time.Millisecond)
			return context.Background(), func() {}
		}, ErrTimeout},
		{"context deadline", func(*Engine) (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}, ErrTimeout},
	}
	for _, stop := range stops {
		for _, workers := range []int{1, 4} {
			e := NewEngine(st)
			e.DefaultGraphs = []string{pipeGraphA}
			e.Parallelism = workers
			ctx, cancel := stop.arm(e)
			start := time.Now()
			_, err := e.Do(ctx, Request{Query: q})
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, stop.want) {
				t.Errorf("%s, %d workers: err = %v, want %v", stop.name, workers, err, stop.want)
			}
			if elapsed > 2*time.Second {
				t.Errorf("%s, %d workers: the query ran %v after a 10 ms stop", stop.name, workers, elapsed)
			}
		}
	}
}

// fanoutStore has the Q9 shape: films films, each starring fanout actors
// out of a pool a tenth the size of the cast list, each actor with a birth
// year spread over 80 values.
func fanoutStore(t testing.TB, films, fanout int) *store.Store {
	t.Helper()
	st := store.New()
	actors := max(films*fanout/10, fanout)
	triples := make([]rdf.Triple, 0, films*(fanout+1)+actors)
	for a := 0; a < actors; a++ {
		triples = append(triples, rdf.Triple{S: pipeIRI(fmt.Sprintf("actor%d", a)), P: pipeIRI("born"), O: rdf.NewInteger(int64(1920 + a%80))})
	}
	for f := 0; f < films; f++ {
		film := pipeIRI(fmt.Sprintf("film%d", f))
		triples = append(triples, rdf.Triple{S: film, P: pipeIRI("type"), O: pipeIRI("Film")})
		for k := 0; k < fanout; k++ {
			triples = append(triples, rdf.Triple{S: film, P: pipeIRI("starring"), O: pipeIRI(fmt.Sprintf("actor%d", (f*31+k*7)%actors))})
		}
	}
	if err := st.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return st
}

const fanoutSegment = `?f ex:type ex:Film . ?f ex:starring ?a . ?a ex:born ?y . FILTER(?y >= %d)`

// TestPipelineAllocationFollowsOutput pins the point of fusing: the bytes a
// segment allocates grow with the rows it outputs, not with its largest
// intermediate. The same 48,000-row fan-out runs under a filter that keeps
// nearly nothing and under one that keeps everything; the selective run
// must cost a small fraction of one materialised intermediate.
func TestPipelineAllocationFollowsOutput(t *testing.T) {
	st := fanoutStore(t, 600, 80)
	measure := func(minYear int) (rows int, bytes uint64) {
		op, _, _ := pipeSegment(t, fmt.Sprintf(fanoutSegment, minYear), []string{testGraph}, nil, nil)
		ev := pipeEvaluator(st, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := ev.evalBGP(unitSolution(), op)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return out.n, after.TotalAlloc - before.TotalAlloc
	}
	const intermediate = 600 * 80 * 3 * 4 // rows × columns × bytes per id
	fewRows, fewBytes := measure(1999)
	allRows, allBytes := measure(1920)
	if fewRows != 600 || allRows != 48000 {
		t.Fatalf("rows = %d and %d, want 600 and 48000", fewRows, allRows)
	}
	if fewBytes > intermediate/10 {
		t.Errorf("600 output rows allocated %d bytes; an intermediate (%d bytes) was materialised somewhere", fewBytes, intermediate)
	}
	if allBytes < 10*fewBytes || allBytes > 4*intermediate { // the chunks, with room for -race
		t.Errorf("48000 output rows allocated %d bytes, 600 rows %d: allocation does not follow output", allBytes, fewBytes)
	}
	t.Logf("600 rows: %d B; 48000 rows: %d B; one intermediate: %d B", fewBytes, allBytes, intermediate)
}

// equalitySegment pairs every two actors of a film and keeps the pairs that
// are equal and unequal at once: none. Its two filters run, pushed down, on
// every pair the second pattern binds.
const equalitySegment = `?f ex:starring ?a . ?f ex:starring ?b . FILTER(?a = ?b) FILTER(?a != ?b)`

// runEqualitySegment runs equalitySegment serially on st and returns the
// pairs the filters saw.
func runEqualitySegment(t testing.TB, st *store.Store) int {
	op, _, _ := pipeSegment(t, equalitySegment, []string{testGraph}, nil, nil)
	ev := pipeEvaluator(st, 1)
	p := ev.compilePipeline(unitSolution(), op)
	out, err := ev.runPipeline(p, unitSolution())
	if err != nil {
		t.Fatal(err)
	}
	if out.n != 0 || len(op.filters) != 2 {
		t.Fatalf("%d rows out and %d of 2 filters pushed down, want none and both", out.n, len(op.filters))
	}
	return p.workers[0].rows[1]
}

// TestPushedDownEqualityAllocsFollowOutput: the pushed-down = and != cost
// nothing per row, so 100,000 intermediate rows allocate no more than
// 1,000 do when neither run outputs anything.
func TestPushedDownEqualityAllocsFollowOutput(t *testing.T) {
	allocs := func(films int) (float64, int) {
		st := fanoutStore(t, films, 10)
		var rows int
		n := testing.AllocsPerRun(5, func() { rows = runEqualitySegment(t, st) })
		return n, rows
	}
	small, smallRows := allocs(10)
	large, largeRows := allocs(1000)
	if smallRows != 1000 || largeRows != 100000 {
		t.Fatalf("intermediate rows %d and %d, want 1000 and 100000", smallRows, largeRows)
	}
	if large > small {
		t.Errorf("100,000 intermediate rows allocate %v objects, 1,000 rows %v", large, small)
	}
}

// TestParallelBodiesMatchSerialOnPipeStore is the byte-identity contract on
// the store the shape tests use, through the whole engine (planner on):
// repeated variables, a wildcard column, two graphs.
func TestParallelBodiesMatchSerialOnPipeStore(t *testing.T) {
	st := pipeStore(t)
	queries := []string{
		`SELECT * WHERE { ?x ?x ?o }`,
		`SELECT * WHERE { ?s <http://ex/p> ?o . OPTIONAL { ?s <http://ex/label> ?l } ?s ?k ?l }`,
		`SELECT * FROM <http://test/a> FROM <http://test/b> WHERE { ?s <http://ex/p> ?o . ?o <http://ex/r> ?c . FILTER(regex(str(?c), "[cd]1")) }`,
	}
	serial := NewEngine(st)
	serial.Parallelism = 1
	for _, workers := range []int{2, 4} {
		par := NewEngine(st)
		par.Parallelism = workers
		for _, q := range queries {
			want, err := serial.Do(context.Background(), Request{Query: q, JSON: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Do(context.Background(), Request{Query: q, JSON: true})
			if err != nil {
				t.Fatal(err)
			}
			if want.Rows == 0 || !bytes.Equal(want.Body, got.Body) {
				t.Errorf("%d workers: body differs from serial (or is empty: %d rows) for %s", workers, want.Rows, q)
			}
		}
	}
}
