package sparql

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// ErrTimeout is returned when a query exceeds the engine's deadline.
var ErrTimeout = fmt.Errorf("sparql: query timeout")

// evaluator executes one query. Solutions flow through it as columnar id
// batches (idRows); rdf.Term values appear only at the expression and
// final-projection boundaries, via the evaluator's evalDict.
type evaluator struct {
	store           *store.Store
	dict            *evalDict
	cache           *regexCache
	disableReorder  bool
	disablePushdown bool
	// qp is the cost-based plan for this query (nil falls back to the
	// greedy probe-memoized ordering); seg counts BGP segments per group so
	// execution lines up with the plan's static segment numbering.
	qp  *queryPlan
	seg map[*Group]int
	// tk is the query goroutine's progress ticker: deadline plus context
	// cancellation. Pool workers get their own tickers (see parallel.go).
	tk ticker
	// workers is the morsel pool size; <= 1 keeps every operator on the
	// query goroutine (the exact serial path).
	workers int
	// cardMemo memoizes base cardinality probes per (pattern, graphs) for
	// the lifetime of this query; see baseCardinality.
	cardMemo map[cardKey]float64
	// wcojCtr points at the engine's WCOJ counters (nil in unit-evaluator
	// tests); see wcoj.go.
	wcojCtr *wcojCounters
}

// cardKey identifies one base-cardinality probe: the pattern (variables
// and constants alike — TriplePattern is comparable) and the graph scope.
type cardKey struct {
	pat    TriplePattern
	graphs string
}

// tick counts one step on the query goroutine's ticker, polling the
// deadline and context every few thousand steps.
func (ev *evaluator) tick() error { return ev.tk.tick() }

// rowCtx returns an expression context whose row is a mutable view into
// rows; set view.idx before each evaluation.
func (ev *evaluator) rowCtx(rows *idRows) (*evalCtx, *idRowView) {
	view := &idRowView{rows: rows, dict: ev.dict}
	return &evalCtx{row: view, dict: ev.dict, cache: ev.cache}, view
}

// evalQuery evaluates a query against the given default graphs and resolves
// its projected solutions into a compact result: each distinct term is
// decoded once, here, under the read lock the caller holds.
func (ev *evaluator) evalQuery(q *Query, defaultGraphs []string) (*compactResult, error) {
	sols, err := ev.evalQueryRows(q, defaultGraphs, true)
	if err != nil {
		return nil, err
	}
	return ev.compact(sols)
}

// evalQueryRows evaluates a query and returns its projected solutions still
// in id space (the representation subqueries join on). top marks the
// outermost query: its solutions are canonicalized — sorted by term content
// — before solution modifiers run, which makes the final row order a pure
// function of the query and the data, independent of the join order the
// planner (or the greedy heuristic) chose. That plan-invariance is what
// lets CI byte-diff optimized against heuristic execution, and means a plan
// change after a stats-epoch move can never reorder a client's paginated
// sweep. Subquery solutions are left in execution order: the top-level
// canonicalization erases any order difference they could introduce.
func (ev *evaluator) evalQueryRows(q *Query, defaultGraphs []string, top bool) (*idRows, error) {
	graphs := defaultGraphs
	if len(q.From) > 0 {
		graphs = q.From
	}
	sols, err := ev.evalGroup(q.Where, graphs, "")
	if err != nil {
		return nil, err
	}

	switch {
	case q.HasAggregates():
		if q.Star {
			return nil, fmt.Errorf("sparql: SELECT * cannot be combined with aggregation")
		}
		// Aggregation is order-sensitive in content, not just order: SUM/AVG
		// accumulate floats in input order and SAMPLE takes the first group
		// row. Sort the group input (at every nesting level) by exactly the
		// aggregation-relevant columns — group keys plus every variable the
		// aggregate/HAVING expressions read. Those columns are never pruned
		// (they have uses outside any one BGP segment), so the key set is
		// identical under every plan; rows tying on all of them contribute
		// identically to every aggregate, so tie order is immaterial.
		if err := ev.sortRowsBy(sols, aggregationVars(q)); err != nil {
			return nil, err
		}
		sols, err = ev.aggregate(q, sols)
		if err != nil {
			return nil, err
		}
		if ev.qp != nil && ev.qp.track {
			ev.qp.aggs[q].Record(sols.n)
		}
	default:
		// Extend with computed projections (expr AS ?var).
		for _, it := range q.Items {
			if it.Expr == nil {
				continue
			}
			col := sols.ensureCol(it.Var)
			ctx, view := ev.rowCtx(sols)
			for i := 0; i < sols.n; i++ {
				view.idx = i
				v, err := evalExpr(it.Expr, ctx)
				if err == nil {
					sols.set(i, col, ev.dict.encode(v))
				}
			}
		}
	}

	if top || q.Limit >= 0 || q.Offset > 0 {
		// Canonical order first; ORDER BY then stable-sorts on top, so even
		// its ties resolve identically under every plan. Subqueries without
		// LIMIT/OFFSET skip this — their order is erased by the top-level
		// canonicalization — but a sliced subquery picks *which* rows
		// survive by order, so it must canonicalize to keep the selected
		// bag plan-invariant.
		if err := ev.canonicalizeRows(sols, q.projectedVars()); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 {
		if err := ev.orderBy(sols, q.OrderBy); err != nil {
			return nil, err
		}
	}

	proj := sols.project(q.projectedVars())
	if q.Distinct {
		if err := ev.distinctRows(proj); err != nil {
			return nil, err
		}
		if ev.qp != nil && ev.qp.track {
			ev.qp.distincts[q].Record(proj.n)
		}
	}
	// The same clamp serves the result cache's pagination-aware slicing:
	// sharing it keeps cached page slices exactly equal to direct
	// evaluation (see cache.go).
	lo, hi := pageBounds(proj.n, q.Limit, q.Offset)
	if lo != 0 || hi != proj.n {
		proj.sliceRows(lo, hi)
	}
	if ev.qp != nil && ev.qp.track {
		ev.qp.results[q].Record(proj.n)
	}
	return proj, nil
}

func (ev *evaluator) aggregate(q *Query, sols *idRows) (*idRows, error) {
	type groupEntry struct{ rows []int }
	var groups []*groupEntry
	cols := make([]int, len(q.GroupBy)) // -1 when the var never bound
	for j, v := range q.GroupBy {
		if c, ok := sols.col(v); ok {
			cols[j] = c
		} else {
			cols[j] = -1
		}
	}
	if len(q.GroupBy) == 0 {
		// Implicit single group; non-nil rows so aggregates see a group
		// context even when the pattern matched nothing (COUNT()=0).
		ge := &groupEntry{rows: make([]int, sols.n)}
		for i := range ge.rows {
			ge.rows[i] = i
		}
		groups = []*groupEntry{ge}
	} else {
		index := map[string]*groupEntry{}
		var kb []byte
		keyIDs := make([]store.ID, len(cols))
		for i := 0; i < sols.n; i++ {
			for j, c := range cols {
				keyIDs[j] = 0
				if c >= 0 {
					keyIDs[j] = sols.at(i, c)
				}
			}
			kb = appendIDKeyRow(kb[:0], keyIDs)
			ge, ok := index[string(kb)]
			if !ok {
				ge = &groupEntry{}
				index[string(kb)] = ge
				groups = append(groups, ge)
			}
			ge.rows = append(ge.rows, i)
		}
	}

	// Output columns: the grouping vars plus every computed projection.
	outVars := make([]string, 0, len(q.GroupBy)+len(q.Items))
	outSeen := map[string]int{}
	for _, v := range q.GroupBy {
		if _, ok := outSeen[v]; !ok {
			outSeen[v] = len(outVars)
			outVars = append(outVars, v)
		}
	}
	for _, it := range q.Items {
		if it.Expr == nil {
			continue // plain variable: must be a grouping var, already present
		}
		if _, ok := outSeen[it.Var]; !ok {
			outSeen[it.Var] = len(outVars)
			outVars = append(outVars, it.Var)
		}
	}
	out := newIDRows(outVars)
	keyRow := newIDRows(append([]string(nil), q.GroupBy...))
	keyRow.data = make([]store.ID, len(q.GroupBy))
	keyRow.n = 1
	rowBuf := make([]store.ID, len(outVars))

	for _, ge := range groups {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		for j := range keyRow.data {
			keyRow.data[j] = 0
		}
		if len(ge.rows) > 0 {
			first := ge.rows[0]
			for j, c := range cols {
				if c >= 0 {
					keyRow.data[j] = sols.at(first, c)
				}
			}
		}
		ctx := &evalCtx{
			row:      &idRowView{rows: keyRow, dict: ev.dict},
			groupSrc: sols,
			groupIdx: ge.rows,
			dict:     ev.dict,
			cache:    ev.cache,
		}
		keep := true
		for _, h := range q.Having {
			if !evalBool(h, ctx) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		for j := range rowBuf {
			rowBuf[j] = 0
		}
		for j, v := range q.GroupBy {
			rowBuf[outSeen[v]] = keyRow.data[j]
		}
		for _, it := range q.Items {
			if it.Expr == nil {
				continue
			}
			v, err := evalExpr(it.Expr, ctx)
			if err == nil {
				rowBuf[outSeen[it.Var]] = ev.dict.encode(v)
			}
		}
		out.appendRow(rowBuf)
	}
	return out, nil
}

// canonicalizeRows sorts the batch by decoded term content across every
// column. The key column sequence must itself be plan-invariant — the
// batch's internal column order reflects pattern execution order — so the
// projected variables lead (in the query-defined order) and any remaining
// columns follow sorted by name. rdf.Compare is a total order on terms,
// and the sequence covers every column, so equal-comparing rows are
// identical and their relative order is immaterial. This is the canonical
// order of unordered query results; see evalQueryRows.
func (ev *evaluator) canonicalizeRows(sols *idRows, projected []string) error {
	keyVars := make([]string, 0, sols.width()+len(projected))
	keyVars = append(keyVars, projected...)
	rest := append([]string(nil), sols.vars...)
	sort.Strings(rest)
	keyVars = append(keyVars, rest...)
	return ev.sortRowsBy(sols, keyVars)
}

// sortRowsBy stably sorts the batch by decoded term content over the named
// columns in order (duplicates and absent names are skipped). Callers must
// pick a key set under which tied rows are interchangeable for everything
// downstream; the stable sort then keeps ties deterministic per plan.
func (ev *evaluator) sortRowsBy(sols *idRows, keyVars []string) error {
	if sols.n <= 1 || sols.width() == 0 {
		return nil
	}
	if err := ev.tick(); err != nil {
		return err
	}
	keyCols := make([]int, 0, len(keyVars))
	inKey := make([]bool, sols.width())
	for _, v := range keyVars {
		if c, ok := sols.col(v); ok && !inKey[c] {
			keyCols = append(keyCols, c)
			inKey[c] = true
		}
	}
	if len(keyCols) == 0 {
		return nil
	}
	w := sols.width()
	perm := make([]int, sols.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra := sols.data[perm[a]*w : perm[a]*w+w]
		rb := sols.data[perm[b]*w : perm[b]*w+w]
		for _, j := range keyCols {
			if ra[j] == rb[j] {
				continue // same id, same term
			}
			if c := rdf.Compare(ev.dict.decode(ra[j]), ev.dict.decode(rb[j])); c != 0 {
				return c < 0
			}
		}
		return false
	})
	sols.permute(perm)
	return nil
}

// aggregationVars lists the variables that determine a row's contribution
// to the query's aggregation: the group keys plus everything the projected
// aggregate expressions and HAVING conditions read.
func aggregationVars(q *Query) []string {
	var out []string
	out = append(out, q.GroupBy...)
	for _, it := range q.Items {
		if it.Expr != nil {
			out = append(out, exprVars(it.Expr)...)
		} else {
			out = append(out, it.Var)
		}
	}
	for _, h := range q.Having {
		out = append(out, exprVars(h)...)
	}
	return out
}

func (ev *evaluator) orderBy(sols *idRows, keys []OrderKey) error {
	n := sols.n
	nk := len(keys)
	keyTerms := make([]rdf.Term, n*nk)
	ctx, view := ev.rowCtx(sols)
	for i := 0; i < n; i++ {
		view.idx = i
		for j, k := range keys {
			v, err := evalExpr(k.Expr, ctx)
			if err == nil {
				keyTerms[i*nk+j] = v
			}
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka := keyTerms[perm[a]*nk : perm[a]*nk+nk]
		kb := keyTerms[perm[b]*nk : perm[b]*nk+nk]
		for j, k := range keys {
			c := rdf.Compare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sols.permute(perm)
	return nil
}

// groupFilter is one group-scoped FILTER with its plan reference (for
// actual-cardinality recording on tracked plans).
type groupFilter struct {
	cond Expression
	ref  filterRef
}

// evalGroup evaluates a group graph pattern. graphOverride, when non-empty,
// scopes all patterns to that single graph (a GRAPH block).
func (ev *evaluator) evalGroup(g *Group, graphs []string, graphOverride string) (*idRows, error) {
	active := graphs
	if graphOverride != "" {
		active = []string{graphOverride}
	}
	current := unitSolution()
	var pending []TriplePattern

	// FILTER scope is the whole group regardless of textual position;
	// collecting filters up front lets BGP evaluation push them down.
	var filters []groupFilter
	for _, el := range g.Elems {
		if f, ok := el.(FilterElem); ok {
			filters = append(filters, groupFilter{cond: f.Cond, ref: filterRef{g, len(filters)}})
		}
	}

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		var bp *bgpPlan
		if ev.qp != nil {
			if ev.seg == nil {
				ev.seg = make(map[*Group]int)
			}
			bp = ev.qp.bgps[bgpRef{g, ev.seg[g]}]
			ev.seg[g]++
		}
		var err error
		current, err = ev.evalBGP(current, pending, active, &filters, bp)
		pending = nil
		return err
	}

	for idx, el := range g.Elems {
		switch e := el.(type) {
		case BGPElem:
			pending = append(pending, e.Pattern)
		case FilterElem:
			// Collected before the loop.
		case BindElem:
			if err := flush(); err != nil {
				return nil, err
			}
			col := current.ensureCol(e.Var)
			ctx, view := ev.rowCtx(current)
			for i := 0; i < current.n; i++ {
				view.idx = i
				v, err := evalExpr(e.Expr, ctx)
				if err == nil {
					current.set(i, col, ev.dict.encode(v))
				}
			}
		case OptionalElem:
			if err := flush(); err != nil {
				return nil, err
			}
			right, err := ev.evalGroup(e.Group, graphs, graphOverride)
			if err != nil {
				return nil, err
			}
			current, err = ev.join(current, right, true)
			if err != nil {
				return nil, err
			}
			ev.qp.recordElem(g, idx, current.n)
		case UnionElem:
			if err := flush(); err != nil {
				return nil, err
			}
			parts := make([]*idRows, 0, len(e.Branches))
			for _, b := range e.Branches {
				part, err := ev.evalGroup(b, graphs, graphOverride)
				if err != nil {
					return nil, err
				}
				parts = append(parts, part)
			}
			joined, err := ev.join(current, concatRows(parts), false)
			if err != nil {
				return nil, err
			}
			current = joined
			ev.qp.recordElem(g, idx, current.n)
		case GraphElem:
			if err := flush(); err != nil {
				return nil, err
			}
			right, err := ev.evalGroup(e.Group, graphs, e.Graph)
			if err != nil {
				return nil, err
			}
			current, err = ev.join(current, right, false)
			if err != nil {
				return nil, err
			}
			ev.qp.recordElem(g, idx, current.n)
		case GroupElem:
			if err := flush(); err != nil {
				return nil, err
			}
			right, err := ev.evalGroup(e.Group, graphs, graphOverride)
			if err != nil {
				return nil, err
			}
			current, err = ev.join(current, right, false)
			if err != nil {
				return nil, err
			}
			ev.qp.recordElem(g, idx, current.n)
		case SubQueryElem:
			if err := flush(); err != nil {
				return nil, err
			}
			sub, err := ev.evalQueryRows(e.Query, graphs, false)
			if err != nil {
				return nil, err
			}
			current, err = ev.join(current, sub, false)
			if err != nil {
				return nil, err
			}
			ev.qp.recordElem(g, idx, current.n)
		case PathElem:
			if err := flush(); err != nil {
				return nil, err
			}
			var err error
			current, err = ev.evalPath(current, e, active)
			if err != nil {
				return nil, err
			}
			ev.qp.recordElem(g, idx, current.n)
		default:
			return nil, fmt.Errorf("sparql: unknown group element %T", el)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	// FILTER scope is the whole group: filters not consumed by pushdown run
	// here, one compaction pass each (conjunctive, so per-filter application
	// keeps exactly the rows the combined pass would).
	for _, f := range filters {
		if err := ev.applyFilter(current, f); err != nil {
			return nil, err
		}
	}
	return current, nil
}

// applyFilter compacts current in place to the rows satisfying f, recording
// the surviving row count on tracked plans.
func (ev *evaluator) applyFilter(current *idRows, f groupFilter) error {
	w := current.width()
	ctx, view := ev.rowCtx(current)
	keep := 0
	for i := 0; i < current.n; i++ {
		if err := ev.tick(); err != nil {
			return err
		}
		view.idx = i
		if evalBool(f.cond, ctx) {
			if keep != i {
				copy(current.data[keep*w:(keep+1)*w], current.data[i*w:(i+1)*w])
			}
			keep++
		}
	}
	current.n = keep
	current.data = current.data[:keep*w]
	if ev.qp != nil {
		ev.qp.recordFilter(f.ref, keep)
	}
	return nil
}

// evalBGP joins the current solutions with a basic graph pattern. With a
// cost-based segment plan (bp) the patterns run in the planner's order and
// dead columns are pruned on the planned schedule; otherwise the greedy
// probe-estimated order is chosen here (the pre-planner heuristic, kept as
// the DisableOptimizer fallback and ablation baseline). Filters from the
// enclosing group are pushed down either way: as soon as every variable of
// a filter is bound, it is applied (and removed from the group's filter
// list), pruning intermediate results early. This is sound because group
// filters are conjunctive and rows never regain bindings they were
// rejected on.
func (ev *evaluator) evalBGP(current *idRows, patterns []TriplePattern, graphs []string, filters *[]groupFilter, bp *bgpPlan) (*idRows, error) {
	if current.n == 0 {
		return current, nil
	}
	if bp != nil && bp.wcoj != nil && len(bp.order) == len(patterns) {
		// The trie walk evaluates the whole segment from the unit solution;
		// any other input (possible only if planner and evaluator disagree
		// about what precedes this segment) falls through to the binary
		// pipeline below, which is byte-equivalent.
		if current.n == 1 && current.width() == 0 {
			return ev.evalWCOJSegment(bp.wcoj, filters)
		}
		if ev.wcojCtr != nil {
			ev.wcojCtr.fallbacks.Add(1)
		}
	}
	bound := map[string]bool{}
	for c, v := range current.vars {
		if current.boundAnywhere(c) {
			bound[v] = true
		}
	}
	ordered := patterns
	if bp != nil && len(bp.order) == len(patterns) {
		ordered = make([]TriplePattern, len(patterns))
		for step, pi := range bp.order {
			ordered[step] = patterns[pi]
		}
	} else if !ev.disableReorder {
		ordered = ev.orderPatterns(patterns, bound, graphs)
	}
	var err error
	for step, pat := range ordered {
		current, err = ev.extend(current, pat, graphs)
		if err != nil {
			return nil, err
		}
		if bp != nil && ev.qp.track {
			bp.nodes[step].Record(current.n)
		}
		for _, v := range pat.Vars() {
			bound[v] = true
		}
		if filters != nil && !ev.disablePushdown {
			current, err = ev.applyReadyFilters(current, bound, filters)
			if err != nil {
				return nil, err
			}
		}
		if bp != nil && len(bp.drop[step]) > 0 {
			current = current.dropCols(bp.drop[step])
		}
		if current.n == 0 {
			return current, nil
		}
	}
	return current, nil
}

// applyReadyFilters applies and removes every filter whose variables are
// all bound, compacting the batch in place.
func (ev *evaluator) applyReadyFilters(current *idRows, bound map[string]bool, filters *[]groupFilter) (*idRows, error) {
	remaining := (*filters)[:0]
	for _, f := range *filters {
		ready := true
		for _, v := range exprVars(f.cond) {
			if !bound[v] {
				ready = false
				break
			}
		}
		if !ready {
			remaining = append(remaining, f)
			continue
		}
		if err := ev.applyFilter(current, f); err != nil {
			return nil, err
		}
	}
	*filters = remaining
	return current, nil
}

// exprVars collects the variables referenced by an expression.
func exprVars(e Expression) []string {
	var out []string
	var walk func(e Expression)
	walk = func(e Expression) {
		switch x := e.(type) {
		case ExVar:
			out = append(out, x.Name)
		case ExBinary:
			walk(x.L)
			walk(x.R)
		case ExUnary:
			walk(x.E)
		case ExCall:
			for _, a := range x.Args {
				walk(a)
			}
		case ExIn:
			walk(x.E)
			for _, a := range x.List {
				walk(a)
			}
		case ExAgg:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	return out
}

// orderPatterns greedily sorts patterns so that the estimated-cheapest
// pattern (given already-bound variables) runs first.
func (ev *evaluator) orderPatterns(patterns []TriplePattern, bound map[string]bool, graphs []string) []TriplePattern {
	remaining := append([]TriplePattern(nil), patterns...)
	boundVars := map[string]bool{}
	for v := range bound {
		boundVars[v] = true
	}
	var out []TriplePattern
	graphsKey := strings.Join(graphs, "\x1f")
	for len(remaining) > 0 {
		bestIdx, bestScore := 0, math.MaxFloat64
		for i, pat := range remaining {
			score := ev.estimate(pat, boundVars, graphs, graphsKey)
			if score < bestScore {
				bestScore, bestIdx = score, i
			}
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		out = append(out, chosen)
		for _, v := range chosen.Vars() {
			boundVars[v] = true
		}
	}
	return out
}

// estimate scores a pattern: the store cardinality with constants bound,
// discounted for each position bound by an already-bound variable.
func (ev *evaluator) estimate(pat TriplePattern, bound map[string]bool, graphs []string, graphsKey string) float64 {
	base := ev.baseCardinality(pat, graphs, graphsKey)
	discount := 1.0
	for _, n := range []Node{pat.S, pat.P, pat.O} {
		if n.IsVar && bound[n.Var] {
			discount *= 16
		}
	}
	return base / discount
}

// baseCardinality memoizes the store probe behind estimate per (pattern,
// graphs) for the lifetime of the query. The greedy orderPatterns loop
// scores every remaining pattern on every round — O(n²) estimate calls for
// an n-pattern BGP — but the probe depends only on the pattern's constant
// positions, not on which variables are bound, so each distinct pattern
// costs exactly one store probe per query. Sound within one evaluation
// because the engine holds the store read lock throughout.
func (ev *evaluator) baseCardinality(pat TriplePattern, graphs []string, graphsKey string) float64 {
	key := cardKey{pat: pat, graphs: graphsKey}
	if v, ok := ev.cardMemo[key]; ok {
		return v
	}
	v := 0.0 // a constant term absent from the dictionary: zero matches
	if idPat, known := ev.constantPattern(pat); known {
		v = float64(ev.store.Cardinality(graphs, idPat))
	}
	if ev.cardMemo == nil {
		ev.cardMemo = make(map[cardKey]float64)
	}
	ev.cardMemo[key] = v
	return v
}

// constantPattern encodes the constant positions of pat; known is false if
// a constant term does not exist in the dictionary (no possible match).
func (ev *evaluator) constantPattern(pat TriplePattern) (store.IDTriple, bool) {
	var out store.IDTriple
	dict := ev.store.Dict()
	enc := func(n Node) (store.ID, bool) {
		if n.IsVar {
			return 0, true
		}
		id, ok := dict.Lookup(n.Term)
		return id, ok
	}
	var ok bool
	if out.S, ok = enc(pat.S); !ok {
		return out, false
	}
	if out.P, ok = enc(pat.P); !ok {
		return out, false
	}
	if out.O, ok = enc(pat.O); !ok {
		return out, false
	}
	return out, true
}

// patSlot describes one position of a triple pattern resolved against the
// current batch: either a constant id or a variable with its source column
// (-1 when not yet bound) and output column.
type patSlot struct {
	isVar   bool
	constID store.ID
	curCol  int
	outCol  int
}

// extend joins each current solution with the matches of one pattern,
// entirely in id space. The pattern is compiled once against the current
// batch (extendExec); large inputs fan out to the morsel pool — a
// range-partitioned base scan when every row shares one probe key, or
// row-range morsels otherwise (see parallel.go) — and the rest run the
// serial scan on the query goroutine.
func (ev *evaluator) extend(cur *idRows, pat TriplePattern, graphs []string) (*idRows, error) {
	x := ev.compileExtend(cur, pat, graphs)
	if x.constMissing {
		// A constant term absent from the dictionary matches nothing.
		return newIDRows(x.outVars), nil
	}
	if out, done, err := ev.extendParallel(x, cur); done {
		return out, err
	}
	return x.scanRows(cur, 0, cur.n, &ev.tk)
}

// extendExec is one pattern extension compiled against the current batch:
// resolved slots, the output column layout, and repeated-variable
// constraints. Its scan methods only read shared state, so disjoint row
// ranges (or disjoint scan segments) can run concurrently.
type extendExec struct {
	store  *store.Store
	graphs []string
	slots  [3]patSlot
	// outVars is the output layout: the current columns followed by the
	// pattern's newly-bound variables.
	outVars []string
	// keyConst reports that no slot reads a current-batch column, so every
	// current row resolves to the same probe key (the base-scan shape).
	keyConst     bool
	constMissing bool
	// sameSP/sameSO/samePO: repeated-variable positions must agree within
	// one match (the bindNode reject path of the per-row evaluator).
	sameSP, sameSO, samePO bool
	curW                   int
}

// compileExtend resolves pat's positions against the current batch.
func (ev *evaluator) compileExtend(cur *idRows, pat TriplePattern, graphs []string) *extendExec {
	dict := ev.store.Dict()
	nodes := [3]Node{pat.S, pat.P, pat.O}
	x := &extendExec{store: ev.store, graphs: graphs, curW: len(cur.vars)}
	outVars := append([]string(nil), cur.vars...)
	outCols := make(map[string]int, len(outVars)+3)
	for i, v := range outVars {
		outCols[v] = i
	}
	x.keyConst = true
	for k, n := range nodes {
		if !n.IsVar {
			id, ok := dict.Lookup(n.Term)
			if !ok {
				x.constMissing = true
			}
			x.slots[k] = patSlot{constID: id}
			continue
		}
		out, ok := outCols[n.Var]
		cc := -1
		if ok {
			if out < len(cur.vars) {
				cc = out
				x.keyConst = false
			}
		} else {
			out = len(outVars)
			outVars = append(outVars, n.Var)
			outCols[n.Var] = out
		}
		x.slots[k] = patSlot{isVar: true, curCol: cc, outCol: out}
	}
	x.outVars = outVars
	x.sameSP = nodes[0].IsVar && nodes[1].IsVar && nodes[0].Var == nodes[1].Var
	x.sameSO = nodes[0].IsVar && nodes[2].IsVar && nodes[0].Var == nodes[2].Var
	x.samePO = nodes[1].IsVar && nodes[2].IsVar && nodes[1].Var == nodes[2].Var
	return x
}

// rowKey resolves the probe key for one current row; unbound cells stay
// wildcards.
func (x *extendExec) rowKey(row []store.ID) store.IDTriple {
	var key store.IDTriple
	for k := range x.slots {
		s := &x.slots[k]
		id := s.constID
		if s.isVar {
			if s.curCol >= 0 {
				id = row[s.curCol] // 0 stays a wildcard
			} else {
				id = 0
			}
		}
		switch k {
		case 0:
			key.S = id
		case 1:
			key.P = id
		case 2:
			key.O = id
		}
	}
	return key
}

// reject reports a match violating a repeated-variable constraint.
func (x *extendExec) reject(t store.IDTriple) bool {
	return x.sameSP && t.S != t.P || x.sameSO && t.S != t.O || x.samePO && t.P != t.O
}

// emit appends the merge of one current row and one match onto out, using
// rowBuf (len(outVars)) as scratch.
func (x *extendExec) emit(out *idRows, rowBuf, row []store.ID, m store.IDTriple) {
	copy(rowBuf, row)
	for j := x.curW; j < len(rowBuf); j++ {
		rowBuf[j] = 0
	}
	if x.slots[0].isVar {
		rowBuf[x.slots[0].outCol] = m.S
	}
	if x.slots[1].isVar {
		rowBuf[x.slots[1].outCol] = m.P
	}
	if x.slots[2].isVar {
		rowBuf[x.slots[2].outCol] = m.O
	}
	out.appendRow(rowBuf)
}

// scanRows extends current rows [lo, hi) into a fresh batch, probing the
// store per distinct resolved key. Rows that resolve to the same concrete
// id pattern share one index probe: when no pattern variable is bound yet
// (the common case for the first pattern of a BGP) the store is probed
// exactly once for the whole range instead of once per row. The probe
// cache is per call, so concurrent ranges never share mutable state; when
// the bound columns turn out to be (nearly) all distinct the cache can
// only retain memory without saving probes, so insertion stops once it
// grows large with no hits.
func (x *extendExec) scanRows(cur *idRows, lo, hi int, tk *ticker) (*idRows, error) {
	out := newIDRows(x.outVars)
	w := x.curW
	rowBuf := make([]store.ID, len(x.outVars))
	probeCache := make(map[store.IDTriple][]store.IDTriple)
	cacheHits := 0
	for i := lo; i < hi; i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		row := cur.data[i*w : (i+1)*w]
		key := x.rowKey(row)
		matches, cached := probeCache[key]
		if cached {
			cacheHits++
		} else {
			var iterErr error
			x.store.MatchAny(x.graphs, key, func(t store.IDTriple) bool {
				if err := tk.tick(); err != nil {
					iterErr = err
					return false
				}
				if x.reject(t) {
					return true
				}
				matches = append(matches, t)
				return true
			})
			if iterErr != nil {
				return nil, iterErr
			}
			if len(probeCache) < 1024 || cacheHits >= len(probeCache)/8 {
				probeCache[key] = matches
			}
		}
		for _, m := range matches {
			if err := tk.tick(); err != nil {
				return nil, err
			}
			x.emit(out, rowBuf, row, m)
		}
	}
	return out, nil
}
