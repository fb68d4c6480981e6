package sparql

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rdfframes/internal/sparql/plan"
	"rdfframes/internal/store"
)

// This file is the bridge between the parsed query and the plan package:
// it resolves every triple pattern against the store's statistics catalog
// into a plan.Pattern and compiles the query into the tree of physical
// operators the evaluator runs. Join orders, filter placements, prune
// schedules, trie walks and shared subplans are all decided here, once;
// the evaluator only interprets the tree. It is the engine's only join
// orderer: under Engine.DisableReorder it emits every BGP segment in
// textual order, with no trie walk and no sharing.

// queryPlan is one planned query: the operator tree, whose operators hold
// the plan.Node tree EXPLAIN renders. Plans are immutable once built —
// cached plans are shared across concurrent queries — except for the
// Actual counters in the tree, which are recorded only when track is set
// (tracked plans are built fresh per EXPLAIN call and never shared).
type queryPlan struct {
	// epoch is the stats epoch the plan was built against; the plan cache
	// re-plans when the store's epoch moves (see Engine.planned).
	epoch uint64
	track bool
	// reorder is false for a DisableReorder plan: textual order, no
	// estimates, no trie walk, no sharing.
	reorder bool
	root    *selectOp
	// cost sums the estimates of every BGP segment's steps, or of a trie
	// walk's levels: the objective the planner minimized (see EstimateCost).
	cost float64

	// digest memoizes planDigest; computed on first use so plans that are
	// never traced or slow-logged pay nothing.
	digestOnce sync.Once
	digestHex  string
}

// The physical operators. A group runs its operators in order, starting
// from the unit solution: each takes the solutions so far and returns them
// extended. A group, a UNION or a subquery is a source, evaluated from the
// unit solution for the join that consumes it. A subquery or a leading
// segment with a twin holds its class of shared subplans (share).
type operator interface {
	run(ev *evaluator, cur *idRows) (*idRows, error)
}

type source interface {
	rows(ev *evaluator) (*idRows, error)
}

// selectOp is a (sub)query: its WHERE group, then its solution modifiers.
type selectOp struct {
	q     *Query
	where *groupOp
	// canon sorts the solutions into canonical order before ORDER BY (see
	// planQuery).
	canon bool
	// node records the rows after the modifiers; agg and distinct, nil
	// when the query has no such modifier, the rows after theirs.
	node, agg, distinct *plan.Node
	share               *subplan
}

// groupOp is a group graph pattern.
type groupOp struct{ ops []operator }

// bgpOp is one BGP segment, a maximal run of a group's triple patterns.
type bgpOp struct {
	graphs []string
	steps  []bgpStep
	// est[i] is the estimated cumulative cardinality after step i (nil
	// under DisableReorder); it sizes parallel morsels.
	est []float64
	// filters are the group filters pushed down into the segment, in step
	// order; drop lists the columns no later operator reads, pruned from
	// the segment's output.
	filters []*filterOp
	drop    []string
	// wcoj, when non-nil, runs the segment as a leapfrog triejoin (see
	// wcoj.go) instead of the steps, then applies every filter.
	wcoj  *wcojSeg
	share *subplan
}

// bgpStep is one pattern of a segment in execution order; the filters
// pushed down after it run from the previous step's f1 up to its own.
type bgpStep struct {
	pat  TriplePattern
	node *plan.Node
	f1   int
}

// joinOp joins the solutions with an OPTIONAL (left outer), a UNION, a
// GRAPH block, a nested group or a subquery.
type joinOp struct {
	right    source
	optional bool
	node     *plan.Node
}

// unionOp is the branches of a UNION, their solutions concatenated.
type unionOp []*groupOp

// bindOp is BIND(expr AS ?v).
type bindOp struct {
	v    string
	expr Expression
}

// pathOp joins in the closure relation of one transitive path element.
type pathOp struct {
	e      PathElem
	graphs []string
	node   *plan.Node
}

// filterOp is one group FILTER, pushed down into a segment or residual.
type filterOp struct {
	cond Expression
	node *plan.Node
}

// planDigest returns a short stable hash of the plan's structure — operator
// kinds, arguments, and child order, which together encode the chosen join
// orders and filter placements. Estimates and actuals are excluded, so two
// executions of the same shape share a digest even when recorded
// cardinalities differ. The slow-query log and ?trace=1 annex carry it so
// "did the plan change across that ingest" is a grep, not a replay. Nil-safe
// ("" for an EXPLAIN query and under DisableReorder).
func (qp *queryPlan) planDigest() string {
	if qp == nil || !qp.reorder {
		return ""
	}
	qp.digestOnce.Do(func() {
		var sb strings.Builder
		writePlanShape(&sb, qp.root.node)
		sum := sha256.Sum256([]byte(sb.String()))
		qp.digestHex = hex.EncodeToString(sum[:8])
	})
	return qp.digestHex
}

// writePlanShape serializes the structural identity of a plan subtree:
// op, detail, and a parenthesized child list.
func writePlanShape(sb *strings.Builder, n *plan.Node) {
	sb.WriteString(n.Op)
	sb.WriteByte(' ')
	sb.WriteString(n.Detail)
	sb.WriteByte('(')
	for _, c := range n.Children {
		writePlanShape(sb, c)
		sb.WriteByte(';')
	}
	sb.WriteByte(')')
}

// subplan is a subquery or a group's leading BGP segment, either of which
// evaluates from the unit solution whatever surrounds it. nodes are the
// roots of its plan nodes; class numbers the members of one class of
// interchangeable subplans from 1 and stays 0 for a subplan without a twin.
type subplan struct {
	syntax subplanSyntax
	nodes  []*plan.Node
	class  int
}

// subplanSyntax is the subquery, or the segment's patterns and pushed-down
// conditions, and the graphs either reads.
type subplanSyntax struct {
	graphs   []string
	query    *Query
	patterns []TriplePattern
	pushed   []Expression
}

// candidate registers a subplan that may have a twin (none under
// DisableReorder, which shares nothing).
func (p *planner) candidate(syntax subplanSyntax, nodes ...*plan.Node) *subplan {
	if !p.qp.reorder {
		return nil
	}
	sp := &subplan{syntax: syntax, nodes: nodes}
	p.subplans = append(p.subplans, sp)
	return sp
}

// shareSubplans numbers every class of two or more interchangeable
// subplans. Two are interchangeable when their plan shapes (operators,
// pattern order, filter placement, prune schedule) are equal as text and
// their graphs and syntax deeply equal: exact equality only, so the members
// of a class produce the same rows in the same order.
func (p *planner) shareSubplans() {
	if len(p.subplans) < 2 {
		return
	}
	reps := map[string][]*subplan{}
	classes := 0
	for _, sp := range p.subplans {
		var sb strings.Builder
		for _, n := range sp.nodes {
			writePlanShape(&sb, n)
		}
		shape := sb.String()
		at := slices.IndexFunc(reps[shape], func(o *subplan) bool { return reflect.DeepEqual(o.syntax, sp.syntax) })
		if at < 0 {
			reps[shape] = append(reps[shape], sp)
			continue
		}
		rep := reps[shape][at]
		if rep.class == 0 {
			classes++
			rep.class = classes
		}
		sp.class = rep.class
	}
	for _, sp := range p.subplans {
		sp.syntax = subplanSyntax{} // a cached plan keeps its classes, not what told them apart
	}
}

// planner builds a queryPlan. The store is probed only for O(1) index
// cardinalities (constant-bound patterns); everything else comes from the
// immutable stats snapshot.
type planner struct {
	st    *store.Store
	stats *store.Stats
	dict  *store.Dictionary
	qp    *queryPlan
	// uses counts every syntactic occurrence of each variable across the
	// whole query (patterns, filters, expressions, projections); the prune
	// schedule drops a column once all its occurrences are behind it.
	uses map[string]int
	// noWCOJ disables the worst-case-optimal join operator (the
	// Engine.DisableWCOJ ablation knob, and DisableReorder), leaving every
	// segment binary.
	noWCOJ bool
	// subplans lists what could be shared; see shareSubplans.
	subplans []*subplan
}

// buildPlan plans q against the current statistics catalog: cost-based
// when reorder is set, in textual order otherwise. track enables
// actual-cardinality recording (EXPLAIN); tracked plans must not be shared
// across evaluations.
func (e *Engine) buildPlan(q *Query, track, reorder bool) *queryPlan {
	stats := e.Store.Stats() // before RLock: Stats may itself lock
	p := &planner{
		st:     e.Store,
		stats:  stats,
		dict:   e.Store.Dict(),
		qp:     &queryPlan{epoch: stats.Epoch, track: track, reorder: reorder},
		uses:   map[string]int{},
		noWCOJ: e.DisableWCOJ || !reorder,
	}
	countQueryUses(q, p.uses)
	// The pattern-cardinality probes read index map lengths; hold the read
	// lock so they cannot race a concurrent writer.
	e.Store.RLock()
	p.qp.root = p.planQuery(q, e.DefaultGraphs, true)
	e.Store.RUnlock()
	p.shareSubplans()
	return p.qp
}

// planQuery plans a (sub)query. Canonical order (see selectRows) is the
// top-level query's, and a sliced subquery's, whose slice picks which rows
// survive by their order. Other subqueries keep execution order, which the
// top-level sort erases.
func (p *planner) planQuery(q *Query, graphs []string, top bool) *selectOp {
	if len(q.From) > 0 {
		graphs = q.From
	}
	detail := "*"
	if !q.Star {
		vars := q.projectedVars()
		quoted := make([]string, len(vars))
		for i, v := range vars {
			quoted[i] = "?" + v
		}
		detail = strings.Join(quoted, " ")
	}
	op := &selectOp{q: q, node: plan.NewNode("select", detail)}
	op.canon = top || q.Limit >= 0 || q.Offset > 0
	where, wn := p.planGroup(q.Where, graphs, "")
	op.where = where
	op.node.Add(wn)
	if q.HasAggregates() {
		op.agg = plan.NewNode("aggregate", aggDetail(q))
		op.node.Add(op.agg)
	}
	if len(q.OrderBy) > 0 {
		op.node.Add(plan.NewNode("order", fmt.Sprintf("%d keys", len(q.OrderBy))))
	}
	if q.Distinct {
		op.distinct = plan.NewNode("distinct", "")
		op.node.Add(op.distinct)
	}
	if q.Limit >= 0 || q.Offset > 0 {
		op.node.Add(plan.NewNode("slice", sliceDetail(q)))
	}
	return op
}

func aggDetail(q *Query) string {
	if len(q.GroupBy) == 0 {
		return "implicit group"
	}
	quoted := make([]string, len(q.GroupBy))
	for i, v := range q.GroupBy {
		quoted[i] = "?" + v
	}
	return "group by " + strings.Join(quoted, " ")
}

func sliceDetail(q *Query) string {
	var parts []string
	if q.Limit >= 0 {
		parts = append(parts, "limit "+strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		parts = append(parts, "offset "+strconv.Itoa(q.Offset))
	}
	return strings.Join(parts, " ")
}

// groupScope is what planning a group knows of its variables so far, and
// the group's filters. A filter is pushed down after the first step at
// which every variable it reads is final. A variable is final once a
// pattern at or before that step, or a pattern or path earlier in the
// group, binds it; or once something earlier may have bound it and no later
// step or element of the group mentions it, so nothing can bind it any
// more. A variable nothing earlier binds is never final, and a filter
// reading one stays residual, at the end of the group.
type groupScope struct {
	bound map[string]bool // possibly bound by what is planned so far
	// For the variables the filters read: bound in every solution so far,
	// and mentions by the elements and steps still to plan.
	definite map[string]bool
	later    map[string]int
	filters  []groupFilter
}

// groupFilter is one FILTER of the group being planned.
type groupFilter struct {
	cond   Expression
	vars   []string
	placed bool
}

// newGroupScope starts the scope of g: nothing bound yet, every element
// still to come.
func newGroupScope(g *Group) groupScope {
	gs := groupScope{bound: map[string]bool{}}
	for _, el := range g.Elems {
		if f, ok := el.(FilterElem); ok {
			gs.filters = append(gs.filters, groupFilter{cond: f.Cond, vars: exprVars(f.Cond)})
		}
	}
	if len(gs.filters) == 0 {
		return gs
	}
	gs.definite, gs.later = map[string]bool{}, map[string]int{}
	for _, f := range gs.filters {
		for _, v := range f.vars {
			gs.later[v] = 0
		}
	}
	for _, el := range g.Elems {
		for _, v := range elemBinds(el) {
			if n, ok := gs.later[v]; ok {
				gs.later[v] = n + 1
			}
		}
	}
	return gs
}

// pass moves the scope past an element or step that may bind vars (in
// every solution when definite).
func (gs *groupScope) pass(vars []string, definite bool) {
	for _, v := range vars {
		gs.bound[v] = true
		if n, ok := gs.later[v]; ok {
			gs.later[v] = n - 1
			gs.definite[v] = gs.definite[v] || definite
		}
	}
}

func (gs *groupScope) final(v string) bool {
	return gs.definite[v] || gs.bound[v] && gs.later[v] == 0
}

// place pushes down after n every unplaced filter whose variables are all
// final, then prunes the dropped columns.
func (gs *groupScope) place(op *bgpOp, n *plan.Node, drop []string) {
	for i := range gs.filters {
		f := &gs.filters[i]
		if !f.placed && !slices.ContainsFunc(f.vars, func(v string) bool { return !gs.final(v) }) {
			f.placed = true
			fo := newFilterOp(f.cond, "pushed down")
			op.filters = append(op.filters, fo)
			n.Add(fo.node)
		}
	}
	if len(drop) > 0 {
		n.Add(plan.NewNode("prune", "?"+strings.Join(drop, " ?")))
	}
}

func newFilterOp(cond Expression, placement string) *filterOp {
	return &filterOp{cond: cond, node: plan.NewNode("filter", RenderExpression(cond)+" ["+placement+"]")}
}

// planGroup plans a group graph pattern. Groups evaluate from the unit
// solution, so the scope starts empty and grows across the group's own
// elements.
func (p *planner) planGroup(g *Group, graphs []string, override string) (*groupOp, *plan.Node) {
	active := graphs
	if override != "" {
		active = []string{override}
	}
	op, node := &groupOp{ops: make([]operator, 0, len(g.Elems))}, plan.NewNode("group", "")
	gs := newGroupScope(g)
	leading := true // nothing but patterns and filters so far: the input is the unit solution
	var pending []TriplePattern
	flush := func() {
		if len(pending) > 0 {
			seg, nodes := p.planBGP(pending, active, &gs, leading)
			op.ops = append(op.ops, seg)
			node.Add(nodes...)
		}
		leading, pending = false, nil
	}
	for _, el := range g.Elems {
		switch e := el.(type) {
		case BGPElem:
			pending = append(pending, e.Pattern)
			continue
		case FilterElem:
			continue // placed in a segment or left residual below
		}
		flush()
		o, n := p.planElem(el, graphs, override, active)
		op.ops = append(op.ops, o)
		node.Add(n)
		_, path := el.(PathElem)
		gs.pass(elemBinds(el), path)
	}
	flush()
	for _, f := range gs.filters {
		if !f.placed {
			fo := newFilterOp(f.cond, "residual")
			op.ops = append(op.ops, fo)
			node.Add(fo.node)
		}
	}
	return op, node
}

// elemBinds lists the variables a group element may bind: a pattern's, a
// BIND target, what a nested group exposes, what a subquery projects and a
// path's endpoints. A FILTER binds none.
func elemBinds(el Element) []string {
	switch e := el.(type) {
	case BGPElem:
		return e.Pattern.AppendVars(nil)
	case BindElem:
		return []string{e.Var}
	case OptionalElem:
		return e.Group.scopeVars()
	case UnionElem:
		var out []string
		for _, b := range e.Branches {
			out = append(out, b.scopeVars()...)
		}
		return out
	case GraphElem:
		return e.Group.scopeVars()
	case GroupElem:
		return e.Group.scopeVars()
	case SubQueryElem:
		return e.Query.projectedVars()
	case PathElem:
		var out []string
		for _, n := range []Node{e.S, e.O} {
			if n.IsVar {
				out = append(out, n.Var)
			}
		}
		return out
	}
	return nil
}

// planElem plans a group element other than a triple pattern or a FILTER.
// A subquery reads the group's graphs, not a GRAPH override.
func (p *planner) planElem(el Element, graphs []string, override string, active []string) (operator, *plan.Node) {
	switch e := el.(type) {
	case BindElem:
		return &bindOp{v: e.Var, expr: e.Expr}, plan.NewNode("bind", "?"+e.Var)
	case OptionalElem:
		g, n := p.planGroup(e.Group, graphs, override)
		return newJoin(true, "optional", g, n)
	case UnionElem:
		u, un := unionOp{}, plan.NewNode("join", "union")
		for _, b := range e.Branches {
			g, n := p.planGroup(b, graphs, override)
			u = append(u, g)
			un.Add(n)
		}
		return &joinOp{right: u, node: un}, un
	case GraphElem:
		g, n := p.planGroup(e.Group, graphs, e.Graph)
		return newJoin(false, "graph <"+e.Graph+">", g, n)
	case GroupElem:
		g, n := p.planGroup(e.Group, graphs, override)
		return newJoin(false, "group", g, n)
	case SubQueryElem:
		sub := p.planQuery(e.Query, graphs, false)
		sub.share = p.candidate(subplanSyntax{graphs: graphs, query: e.Query}, sub.node)
		return newJoin(false, "subquery", sub, sub.node)
	case PathElem:
		n := plan.NewNode("path", e.String())
		return &pathOp{e: e, graphs: active, node: n}, n
	}
	panic(fmt.Sprintf("sparql: unknown group element %T", el))
}

// newJoin builds the join with one right-hand side, planned as n.
func newJoin(optional bool, detail string, right source, n *plan.Node) (operator, *plan.Node) {
	kind := "join"
	if optional {
		kind = "leftjoin"
	}
	j := &joinOp{right: right, optional: optional, node: plan.NewNode(kind, detail).Add(n)}
	return j, j.node
}

// planBGP plans one BGP segment: its step order (cost-based, or textual
// under DisableReorder), the filters pushed down after each step, the prune
// schedule and, for a group's leading segment that qualifies, the trie
// walk. gs moves past the segment's patterns.
func (p *planner) planBGP(patterns []TriplePattern, active []string, gs *groupScope, leading bool) (*bgpOp, []*plan.Node) {
	op := &bgpOp{graphs: active, steps: make([]bgpStep, len(patterns))}
	for i, pat := range patterns {
		op.steps[i].pat = pat
	}
	var pats []plan.Pattern
	if p.qp.reorder {
		pats = make([]plan.Pattern, len(patterns))
		for i := range patterns {
			pats[i] = p.planPattern(patterns[i], active)
		}
		var order []int
		order, op.est = plan.Order(pats, gs.bound)
		for step, pi := range order {
			op.steps[step].pat = patterns[pi]
		}
	}

	// Prune schedule: a variable whose every use in the whole query lies
	// within this segment's patterns is dead once its last pattern has
	// executed.
	vars := make([][]string, len(patterns)) // per step
	occ, last := map[string]int{}, map[string]int{}
	for step, s := range op.steps {
		vars[step] = s.pat.AppendVars(nil)
		for _, v := range vars[step] {
			occ[v]++
			last[v] = step
		}
	}
	drop := make([][]string, len(patterns))
	for v, n := range occ {
		if p.uses[v] == n {
			drop[last[v]] = append(drop[last[v]], v)
			op.drop = append(op.drop, v)
		}
	}
	for _, d := range drop {
		sort.Strings(d)
	}

	var nodes []*plan.Node
	if leading {
		op.wcoj = p.tryWCOJ(patterns, pats, active, op.est)
	}
	if w := op.wcoj; w != nil {
		// The walk replaces the steps in the plan tree, and the segment's
		// filters and prunes apply once, at its end.
		op.steps = nil
		for _, vs := range vars {
			gs.pass(vs, true)
		}
		gs.place(op, w.node, op.drop)
		for _, ln := range w.levels {
			p.qp.cost += ln.Est
		}
		nodes = []*plan.Node{w.node}
	} else {
		nodes = make([]*plan.Node, len(patterns))
		for step := range op.steps {
			s := &op.steps[step]
			s.node = plan.NewNode("scan", s.pat.String())
			if op.est != nil {
				s.node.Est = op.est[step]
				p.qp.cost += s.node.Est
			}
			gs.pass(vars[step], true)
			gs.place(op, s.node, drop[step])
			s.f1 = len(op.filters)
			nodes[step] = s.node
		}
	}
	if leading {
		syntax := subplanSyntax{graphs: active, patterns: patterns}
		for _, f := range op.filters {
			syntax.pushed = append(syntax.pushed, f.cond)
		}
		op.share = p.candidate(syntax, nodes...)
	}
	return op, nodes
}

// planPattern resolves one triple pattern against the statistics catalog:
// base cardinality (exact O(1) index probes when subject or object is a
// constant, per-predicate catalog counts otherwise) and the per-position
// selectivity applied when that position's variable arrives already bound.
func (p *planner) planPattern(pat TriplePattern, graphs []string) plan.Pattern {
	out := plan.Pattern{Sel: [3]float64{1, 1, 1}}
	nodes := [3]Node{pat.S, pat.P, pat.O}
	var ids [3]store.ID
	known := true
	nConst := 0
	for k, n := range nodes {
		if n.IsVar {
			out.Vars[k] = n.Var
			continue
		}
		nConst++
		id, ok := p.dict.Lookup(n.Term)
		if !ok {
			known = false
		}
		ids[k] = id
	}
	if !known {
		// A constant term absent from the dictionary matches nothing.
		return out
	}
	switch {
	case nConst == 0:
		t, _, _, _ := p.stats.Totals(graphs)
		out.Card = float64(t)
	case nConst == 1 && !nodes[1].IsVar:
		// Predicate-only: the expensive probe the catalog exists to avoid.
		out.Card = float64(p.stats.Predicate(graphs, ids[1]).Triples)
	default:
		// At least one subject/object constant: the index answers in O(1)
		// (or a cheap inner-map sweep for s-only / o-only shapes).
		out.Card = float64(p.st.Cardinality(graphs, store.IDTriple{S: ids[0], P: ids[1], O: ids[2]}))
	}
	if !nodes[1].IsVar {
		ps := p.stats.Predicate(graphs, ids[1])
		out.Sel[0] = 1 / max(float64(ps.DistinctSubjects), 1)
		out.Sel[2] = 1 / max(float64(ps.DistinctObjects), 1)
	} else {
		_, ds, do, np := p.stats.Totals(graphs)
		out.Sel[0] = 1 / max(float64(ds), 1)
		out.Sel[1] = 1 / max(float64(np), 1)
		out.Sel[2] = 1 / max(float64(do), 1)
	}
	return out
}

// countQueryUses counts every syntactic occurrence of each variable in the
// query: triple-pattern positions, filter and projection expressions, BIND
// targets, grouping and ordering keys, and everything inside subqueries.
// Conservative by construction — an occurrence anywhere (even in an
// unrelated scope) keeps the variable alive for pruning purposes. SELECT *
// and COUNT(DISTINCT *) use every variable in scope.
func countQueryUses(q *Query, uses map[string]int) {
	if q.Where != nil && (q.Star || slices.Contains(aggregationVars(q), "*")) {
		for _, v := range q.Where.scopeVars() {
			uses[v]++
		}
	}
	for _, it := range q.Items {
		uses[it.Var]++
		if it.Expr != nil {
			countExprUses(it.Expr, uses)
		}
	}
	for _, v := range q.GroupBy {
		uses[v]++
	}
	for _, h := range q.Having {
		countExprUses(h, uses)
	}
	for _, k := range q.OrderBy {
		countExprUses(k.Expr, uses)
	}
	if q.Where != nil {
		countGroupUses(q.Where, uses)
	}
}

func countGroupUses(g *Group, uses map[string]int) {
	var buf [3]string
	for _, el := range g.Elems {
		switch e := el.(type) {
		case BGPElem:
			for _, v := range e.Pattern.AppendVars(buf[:0]) {
				uses[v]++
			}
		case FilterElem:
			countExprUses(e.Cond, uses)
		case BindElem:
			uses[e.Var]++
			countExprUses(e.Expr, uses)
		case OptionalElem:
			countGroupUses(e.Group, uses)
		case UnionElem:
			for _, b := range e.Branches {
				countGroupUses(b, uses)
			}
		case GraphElem:
			countGroupUses(e.Group, uses)
		case GroupElem:
			countGroupUses(e.Group, uses)
		case SubQueryElem:
			countQueryUses(e.Query, uses)
		case PathElem:
			if e.S.IsVar {
				uses[e.S.Var]++
			}
			if e.O.IsVar {
				uses[e.O.Var]++
			}
		}
	}
}

func countExprUses(e Expression, uses map[string]int) {
	for _, v := range exprVars(e) {
		uses[v]++
	}
}
