package sparql

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql/plan"
	"rdfframes/internal/store"
)

// ErrTimeout is returned when a query exceeds the engine's deadline.
var ErrTimeout = fmt.Errorf("sparql: query timeout")

// evaluator runs one query's operator tree. Solutions flow through it as
// columnar id batches (idRows); rdf.Term values appear only at the
// expression and final-projection boundaries, via the evaluator's evalDict.
type evaluator struct {
	store *store.Store
	dict  *evalDict
	cache *regexCache
	// track records actual cardinalities on the plan's nodes (a tracked
	// plan, built for one evaluation).
	track bool
	// tk is the query goroutine's progress ticker: deadline plus context
	// cancellation. Pool workers get their own tickers (see parallel.go).
	tk ticker
	// workers is the morsel pool size; <= 1 keeps every operator on the
	// query goroutine (the exact serial path).
	workers int
	// ctr points at the engine's executor counters (nil in unit-evaluator
	// tests); see wcoj.go. stats is this evaluation's share of them.
	ctr   *execCounters
	stats evalStats
	// memo holds, per class of shared subplans, the output of the member
	// evaluated and that member; see shared.
	memo map[int]memoEntry
}

// evalStats counts, for one evaluation, the candidate pairs its joins
// checked, the rows they emitted, and the subplans it took from its memo.
type evalStats struct {
	joinCandidates, joinRows, subplanReuses int64
}

type memoEntry struct {
	rows *idRows
	from *subplan
}

// shared evaluates a subplan once per query: the first member of a class
// of shared subplans to get here runs eval and leaves its output in the
// memo, marked shared so that whoever changes it in place copies first; a
// later member gets an alias of it and, on a tracked plan, its actuals. A
// subplan in no class runs eval.
func (ev *evaluator) shared(sp *subplan, eval func() (*idRows, error)) (*idRows, error) {
	if sp == nil || sp.class == 0 {
		return eval()
	}
	if m, ok := ev.memo[sp.class]; ok {
		ev.stats.subplanReuses++
		for i := 0; ev.track && i < len(sp.nodes); i++ {
			sp.nodes[i].CopyActuals(m.from.nodes[i])
		}
		return m.rows.alias(), nil
	}
	rows, err := eval()
	if err != nil {
		return nil, err
	}
	if ev.memo == nil {
		ev.memo = make(map[int]memoEntry)
	}
	ev.memo[sp.class] = memoEntry{rows: rows.alias(), from: sp}
	rows.shared = true
	return rows, nil
}

// record notes an operator's output rows on a tracked plan.
func (ev *evaluator) record(n *plan.Node, rows int) {
	if ev.track {
		n.Record(rows)
	}
}

// tick counts one step on the query goroutine's ticker, polling the
// deadline and context every few thousand steps.
func (ev *evaluator) tick() error { return ev.tk.tick() }

// evalQuery runs a planned query under the window limit/offset and
// resolves its projected solutions into a compact result: each distinct
// term is decoded once, here, under the read lock the caller holds.
func (ev *evaluator) evalQuery(root *selectOp, limit, offset int) (*compactResult, error) {
	sols, err := ev.selectRows(root, limit, offset, true)
	if ev.ctr != nil { // a failed evaluation did the work all the same
		ev.ctr.joinCandidates.Add(ev.stats.joinCandidates)
		ev.ctr.joinRows.Add(ev.stats.joinRows)
		ev.ctr.subplanReuses.Add(ev.stats.subplanReuses)
	}
	if err != nil {
		return nil, err
	}
	vars := root.q.projectedVars()
	return ev.compact(sols, vars, sols.colsOf(vars))
}

// rows evaluates a subquery, once per class of shared subplans.
func (op *selectOp) rows(ev *evaluator) (*idRows, error) {
	return ev.shared(op.share, func() (*idRows, error) {
		sols, err := ev.selectRows(op, op.q.Limit, op.q.Offset, false)
		if err != nil {
			return nil, err
		}
		return sols.project(op.q.projectedVars()), nil
	})
}

// selectRows evaluates a (sub)query under the window limit/offset and
// returns its solutions still in id space, the representation subqueries
// join on, and not yet projected: DISTINCT keys on the projected columns,
// and only the rows in the window are projected, by the caller. top marks
// the outermost query.
//
// A query the planner marked canon sorts its solutions by term content
// before the solution modifiers run. That makes the final row order a pure
// function of the query and the data, whatever join order the planner
// chose: CI can byte-diff planned against textual-order execution, and a
// plan change after a stats-epoch move can never reorder a client's
// paginated sweep.
func (ev *evaluator) selectRows(op *selectOp, limit, offset int, top bool) (*idRows, error) {
	q := op.q
	sols, err := op.where.rows(ev)
	if err != nil {
		return nil, err
	}
	if top {
		ev.memo = nil // every subplan has run: their outputs need not outlive the sort and the result
	}

	switch {
	case q.HasAggregates():
		if q.Star {
			return nil, fmt.Errorf("sparql: SELECT * cannot be combined with aggregation")
		}
		sols, err = ev.aggregate(q, sols)
		if err != nil {
			return nil, err
		}
		ev.record(op.agg, sols.n)
	default:
		// Extend with computed projections (expr AS ?var).
		for _, it := range q.Items {
			if it.Expr != nil {
				ev.extend(sols, sols.ensureCol(it.Var), it.Expr)
			}
		}
	}

	if op.canon {
		// Canonical order first; ORDER BY then stable-sorts on top, so even
		// its ties resolve identically under every plan.
		if err := ev.canonicalizeRows(sols, q.projectedVars()); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 {
		if err := ev.orderBy(sols, q.OrderBy); err != nil {
			return nil, err
		}
	}

	if q.Distinct {
		if err := ev.distinctRows(sols, sols.colsOf(q.projectedVars())); err != nil {
			return nil, err
		}
		ev.record(op.distinct, sols.n)
	}
	// The same clamp serves the result cache's pagination-aware slicing:
	// sharing it keeps cached page slices exactly equal to direct
	// evaluation (see cache.go).
	lo, hi := pageBounds(sols.n, limit, offset)
	if lo != 0 || hi != sols.n {
		sols.sliceRows(lo, hi)
	}
	ev.record(op.node, sols.n)
	return sols, nil
}

// aggregate groups the batch and evaluates HAVING and the projections once
// per group.
//
// Aggregation is order-sensitive in content, not just order: SUM/AVG
// accumulate floats in input order and SAMPLE takes the first group row.
// So the batch is sorted (at every nesting level) by the group keys, then
// every variable the aggregate and HAVING expressions read. Those columns
// are never pruned, so the key set is identical under every plan, and rows
// tying on all of them contribute identically to every aggregate. A group
// is then a run of the order: equal ids are equal terms, and rdf.Compare
// ties only identical terms. Groups come out in key order.
func (ev *evaluator) aggregate(q *Query, sols *idRows) (*idRows, error) {
	keys := aggregationVars(q)
	if slices.Contains(keys, "*") { // sort on every column: equal solutions are adjacent (see countRows)
		sols = sols.project(slices.DeleteFunc(slices.Clone(sols.vars), internalVar))
		keys = append(keys, sols.vars...)
	}
	if err := ev.sortRowsBy(sols, keys); err != nil {
		return nil, err
	}
	keyCols := map[string]int{} // the group keys' columns; a key that never bound has none
	for _, v := range q.GroupBy {
		if c, ok := sols.col(v); ok {
			keyCols[v] = c
		}
	}
	cut := slices.Collect(maps.Values(keyCols)) // a change in any of them ends a group

	// Output columns: the grouping vars plus every computed projection.
	var outVars []string
	for _, v := range q.GroupBy {
		if !slices.Contains(outVars, v) {
			outVars = append(outVars, v)
		}
	}
	for _, it := range q.Items {
		if it.Expr != nil && !slices.Contains(outVars, it.Var) { // a plain variable is a grouping var
			outVars = append(outVars, it.Var)
		}
	}
	out := newIDRows(outVars)
	rowBuf := make([]store.ID, len(outVars))

	// HAVING and the projections, resolved against the input's layout, read
	// keyRow: the group's keys, copied from its first row, and every other
	// column unbound. Their aggregates read the group's rows through group,
	// a header over the run [lo, hi) of the order. Several groups mean a
	// bound key column, hence a sorted, ordered batch; an unordered one is a
	// single group.
	having := make([]Expression, len(q.Having))
	for i, h := range q.Having {
		having[i] = ev.dict.resolve(h, sols.cols)
	}
	items := make([]Expression, len(q.Items))
	for i, it := range q.Items {
		if it.Expr != nil {
			items[i] = ev.dict.resolve(it.Expr, sols.cols)
		}
	}
	keyRow, group := make([]store.ID, sols.width()), sols.alias()
	ctx := &evalCtx{cells: keyRow, groupSrc: group, dict: ev.dict, cache: ev.cache}
	rejects := func(h Expression) bool { return !evalBool(h, ctx) }
	rows := sols.cursor(0)
	var next []store.ID // the next group's first row
	if sols.n > 0 {
		next = rows.next()
	}
	// Without GROUP BY every row is in the one group, which exists even
	// when the pattern matched nothing (COUNT(*) = 0).
	for lo, more := 0, sols.n > 0 || len(q.GroupBy) == 0; more; {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		first, hi := next, sols.n
		if len(q.GroupBy) > 0 {
			for hi = lo + 1; hi < sols.n; hi++ {
				if next = rows.next(); slices.ContainsFunc(cut, func(c int) bool { return next[c] != first[c] }) {
					break
				}
			}
		}
		if sols.order != nil {
			group.order = sols.order[lo:hi]
		}
		group.n = hi - lo
		for _, c := range cut {
			keyRow[c] = first[c]
		}
		lo, more = hi, hi < sols.n
		if slices.ContainsFunc(having, rejects) {
			continue
		}
		clear(rowBuf)
		for v, c := range keyCols {
			rowBuf[out.cols[v]] = first[c]
		}
		for i, it := range q.Items {
			if it.Expr == nil {
				continue
			}
			v, err := evalExpr(items[i], ctx)
			if err == nil {
				rowBuf[out.cols[it.Var]] = ev.dict.encode(v.term())
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
// order of unordered query results; see selectRows.
func (ev *evaluator) canonicalizeRows(sols *idRows, projected []string) error {
	keyVars := make([]string, 0, sols.width()+len(projected))
	keyVars = append(keyVars, projected...)
	rest := append([]string(nil), sols.vars...)
	sort.Strings(rest)
	keyVars = append(keyVars, rest...)
	return ev.sortRowsBy(sols, keyVars)
}

// sortRowsBy sorts the batch by term order over the named columns in order
// (duplicates and absent names are skipped). Callers must pick a key set
// under which tied rows are interchangeable for everything downstream:
// ties keep their row numbers' order, which is deterministic per plan.
//
// The sort orders the batch's order and moves no row. Its entries sort as
// integers: each holds its row number below a key, so one pdqsort orders
// them. The key is the position of the row's term in the store
// dictionary's term order (store.Dictionary.Order), taken from the leading
// key column; each run of rows that ties on a column is re-keyed on the
// next column and sorted in turn. A run holding an id the evaluator minted
// (a term the store lacks, hence without a position) is sorted with
// rdf.Compare.
func (ev *evaluator) sortRowsBy(sols *idRows, keyVars []string) error {
	if sols.n <= 1 || sols.width() == 0 {
		return nil
	}
	if err := ev.tick(); err != nil {
		return err
	}
	var keyCols []int
	for _, v := range keyVars {
		if c, ok := sols.col(v); ok && !slices.Contains(keyCols, c) {
			keyCols = append(keyCols, c)
		}
	}
	if len(keyCols) == 0 {
		return nil
	}
	sols.own()
	sols.number()
	s := &rowSorter{rows: sols, ord: ev.dict.dict.Order(), dict: ev.dict}
	s.sortRun(sols.order, keyCols)
	return nil
}

// rowSorter sorts the entries of a batch's order: the row number in the
// low 32 bits, a key for the column being sorted in the high 32.
type rowSorter struct {
	rows *idRows
	ord  []uint32
	dict *evalDict
}

func (s *rowSorter) at(k uint64, c int) store.ID { return s.rows.numbered(k)[c] }

// sortRun orders run, entries of an order that tie on every earlier key
// column, by the key columns cols.
func (s *rowSorter) sortRun(run []uint64, cols []int) {
	c, first, differ, minted := cols[0], s.at(run[0], cols[0]), false, false
	for i, k := range run {
		id := s.at(k, c)
		if minted = id >= extraIDBase; minted {
			break
		}
		differ = differ || id != first
		run[i] = uint64(s.ord[id])<<32 | uint64(uint32(k))
	}
	switch {
	case minted:
		// Store ids compare by position, other pairs by rdf.Compare; then
		// the keys number the distinct ids for the tie search below.
		slices.SortFunc(run, func(a, b uint64) int {
			x, y := s.at(a, c), s.at(b, c)
			switch {
			case x == y:
				return cmp.Compare(uint32(a), uint32(b))
			case x < extraIDBase && y < extraIDBase:
				return cmp.Compare(s.ord[x], s.ord[y])
			}
			return rdf.Compare(s.dict.decode(x), s.dict.decode(y))
		})
		key, last := uint64(0), s.at(run[0], c)
		for i, k := range run {
			if id := s.at(k, c); id != last {
				key, last = key+1, id
			}
			run[i] = key<<32 | uint64(uint32(k))
		}
	case differ:
		slices.Sort(run)
	}
	if len(cols) == 1 {
		return
	}
	for lo, hi := 0, 1; lo < len(run); lo = hi {
		for hi = lo + 1; hi < len(run) && run[hi]>>32 == run[lo]>>32; hi++ {
		}
		if hi-lo > 1 {
			s.sortRun(run[lo:hi], cols[1:])
		}
	}
}

// aggregationVars lists the variables that determine a row's contribution
// to the query's aggregation: the group keys plus everything the projected
// aggregate expressions and HAVING conditions read ("*" for a
// COUNT(DISTINCT *), see exprVars).
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

// orderBy stably sorts the batch's order by the ORDER BY keys.
func (ev *evaluator) orderBy(sols *idRows, keys []OrderKey) error {
	sols.own()
	sols.number()
	n := sols.n
	nk := len(keys)
	keyTerms := make([]rdf.Term, n*nk)
	exprs := make([]Expression, nk)
	for j, k := range keys {
		exprs[j] = ev.dict.resolve(k.Expr, sols.cols)
	}
	ctx, rows := &evalCtx{dict: ev.dict, cache: ev.cache}, sols.cursor(0)
	for i := 0; i < n; i++ {
		ctx.cells = rows.next()
		for j, e := range exprs {
			if v, err := evalExpr(e, ctx); err == nil {
				keyTerms[i*nk+j] = v.term()
			}
		}
	}
	for i, k := range sols.order { // each entry's place above its row number
		sols.order[i] = uint64(i)<<32 | uint64(uint32(k))
	}
	slices.SortStableFunc(sols.order, func(a, b uint64) int {
		ka := keyTerms[int(a>>32)*nk : int(a>>32)*nk+nk]
		kb := keyTerms[int(b>>32)*nk : int(b>>32)*nk+nk]
		for j, k := range keys {
			if c := rdf.Compare(ka[j], kb[j]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return nil
}

// rows evaluates a group from the unit solution.
func (g *groupOp) rows(ev *evaluator) (*idRows, error) {
	cur := unitSolution()
	for _, op := range g.ops {
		var err error
		if cur, err = op.run(ev, cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// run joins the solutions with the segment, once per class of shared
// subplans.
func (op *bgpOp) run(ev *evaluator, cur *idRows) (*idRows, error) {
	return ev.shared(op.share, func() (*idRows, error) { return ev.evalBGP(cur, op) })
}

// evalBGP joins the solutions with a BGP segment: its steps compiled into
// one fused pipeline (pipeline.go), or its trie walk from the unit solution
// followed by every filter of the segment and its prune. Group filters are
// conjunctive, so applying each once after the walk keeps exactly the rows
// per-step application would.
func (ev *evaluator) evalBGP(cur *idRows, op *bgpOp) (*idRows, error) {
	if cur.n == 0 {
		return cur, nil
	}
	if op.wcoj != nil {
		out, err := ev.evalWCOJ(op.wcoj)
		if err != nil {
			return nil, err
		}
		for _, f := range op.filters {
			if err := ev.applyFilter(out, f); err != nil {
				return nil, err
			}
		}
		if len(op.drop) > 0 {
			out = out.dropCols(op.drop)
		}
		return out, nil
	}
	p := ev.compilePipeline(cur, op)
	out, err := ev.runPipeline(p, cur)
	if err != nil {
		return nil, err
	}
	if ev.track {
		p.recordActuals(cur.n)
	}
	return out, nil
}

func (j *joinOp) run(ev *evaluator, cur *idRows) (*idRows, error) {
	right, err := j.right.rows(ev)
	if err != nil {
		return nil, err
	}
	out, err := ev.join(cur, right, j.optional)
	if err != nil {
		return nil, err
	}
	ev.record(j.node, out.n)
	return out, nil
}

func (u unionOp) rows(ev *evaluator) (*idRows, error) {
	parts := make([]*idRows, len(u))
	for i, g := range u {
		var err error
		if parts[i], err = g.rows(ev); err != nil {
			return nil, err
		}
	}
	return concatRows(parts), nil
}

func (b *bindOp) run(ev *evaluator, cur *idRows) (*idRows, error) {
	ev.extend(cur, cur.ensureCol(b.v), b.expr)
	return cur, nil
}

// extend sets column col of every row of rows, a flat batch of its own
// (ensureCol), to e's value there, or leaves the cell unbound when e
// errors. e is resolved against rows' layout first.
func (ev *evaluator) extend(rows *idRows, col int, e Expression) {
	e = ev.dict.resolve(e, rows.cols)
	ctx := &evalCtx{dict: ev.dict, cache: ev.cache}
	for i := 0; i < rows.n; i++ {
		ctx.cells = rows.row(i)
		if v, err := evalExpr(e, ctx); err == nil {
			rows.set(i, col, ev.dict.encode(v.term()))
		}
	}
}

func (pp *pathOp) run(ev *evaluator, cur *idRows) (*idRows, error) {
	out, err := ev.evalPath(cur, pp.e, pp.graphs)
	if err != nil {
		return nil, err
	}
	ev.record(pp.node, out.n)
	return out, nil
}

func (f *filterOp) run(ev *evaluator, cur *idRows) (*idRows, error) {
	return cur, ev.applyFilter(cur, f)
}

// applyFilter compacts cur in place to the rows satisfying f, resolving
// the condition against cur's layout first.
func (ev *evaluator) applyFilter(cur *idRows, f *filterOp) error {
	cond := ev.dict.resolve(f.cond, cur.cols)
	ctx := &evalCtx{dict: ev.dict, cache: ev.cache}
	err := cur.retain(func(row []store.ID) (bool, error) {
		ctx.cells = row
		return evalBool(cond, ctx), ev.tick()
	})
	if err != nil {
		return err
	}
	ev.record(f.node, cur.n)
	return nil
}

// exprVars collects the variables referenced by an expression. A
// COUNT(DISTINCT *) reads the whole solution: it lists "*", which no
// batch has a column for.
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
			} else if x.Distinct {
				out = append(out, "*")
			}
		}
	}
	walk(e)
	return out
}
