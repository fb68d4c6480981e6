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
// it walks the query exactly the way the evaluator will (the same group /
// BGP-segment structure), resolves every triple pattern against the store's
// statistics catalog into a plan.Pattern, and records the chosen join
// orders, filter placements, and column-prune schedules in a queryPlan the
// evaluator executes. It is the engine's only join orderer: without a plan
// (Engine.DisableReorder) a segment runs in textual order.

// bgpRef identifies one BGP segment: the seg-th maximal run of triple
// patterns within a group's element list.
type bgpRef struct {
	g   *Group
	seg int
}

// filterRef identifies the idx-th FILTER of a group, in syntactic order.
type filterRef struct {
	g   *Group
	idx int
}

// elemRef identifies the idx-th element of a group (for join-node actuals).
type elemRef struct {
	g   *Group
	idx int
}

// bgpPlan is the planned execution of one BGP segment.
type bgpPlan struct {
	// order is the pattern execution order (indexes into the segment's
	// syntactic pattern list).
	order []int
	// est[i] is the estimated cumulative cardinality after executing step i.
	est []float64
	// drop[i] lists columns to prune after step i: variables whose every
	// occurrence in the whole query lies within this segment's patterns, so
	// no later operator can read them.
	drop [][]string
	// nodes[i] is step i's plan-tree node (actuals recorded when tracking).
	nodes []*plan.Node
	// wcoj, when non-nil, replaces the binary pipeline for this segment with
	// a leapfrog triejoin (see wcoj.go). order/est/drop/nodes stay populated
	// as the runtime fallback for evaluations whose input is not the unit
	// solution the trie walk requires.
	wcoj *wcojSeg
}

// queryPlan is one optimized query: the plan tree plus the per-segment
// orders the evaluator executes. Plans are immutable once built — cached
// plans are shared across concurrent queries — except for the Actual
// counters in the tree, which are recorded only when track is set (tracked
// plans are built fresh per EXPLAIN call and never shared).
type queryPlan struct {
	// epoch is the stats epoch the plan was optimized against; the plan
	// cache re-optimizes when the store's epoch moves (see Engine.planned).
	epoch uint64
	track bool
	root  *plan.Node
	bgps  map[bgpRef]*bgpPlan
	elems map[elemRef]*plan.Node
	// filters maps each group filter to its plan node; the evaluator
	// records the row count surviving each application.
	filters map[filterRef]*plan.Node
	// results maps each (sub)query to its final node (rows after
	// modifiers), aggs/distincts to the respective operator nodes.
	results   map[*Query]*plan.Node
	aggs      map[*Query]*plan.Node
	distincts map[*Query]*plan.Node
	// shares maps every subquery (*Query) and leading BGP segment (*bgpPlan)
	// that has a twin in this query to its subplan: the evaluator runs one
	// member of a class and hands the others its output.
	shares map[any]*subplan

	// digest memoizes planDigest; computed on first use so plans that are
	// never traced or slow-logged pay nothing.
	digestOnce sync.Once
	digestHex  string
}

// planDigest returns a short stable hash of the plan's structure — operator
// kinds, arguments, and child order, which together encode the chosen join
// orders and filter placements. Estimates and actuals are excluded, so two
// executions of the same shape share a digest even when recorded
// cardinalities differ. The slow-query log and ?trace=1 annex carry it so
// "did the plan change across that ingest" is a grep, not a replay. Nil-safe
// ("" when the optimizer is off).
func (qp *queryPlan) planDigest() string {
	if qp == nil || qp.root == nil {
		return ""
	}
	qp.digestOnce.Do(func() {
		var sb strings.Builder
		writePlanShape(&sb, qp.root)
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
// evaluates from the unit solution whatever surrounds it. key is what the
// evaluator looks it up by (the *Query, the *bgpPlan), nodes the roots of
// its plan nodes; class numbers the members of one class of
// interchangeable subplans from 1 and stays 0 for a subplan without a twin.
type subplan struct {
	key    any
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

// shareSubplans records in the plan every class of two or more
// interchangeable subplans. Two are interchangeable when their plan shapes
// (operators, pattern order, filter placement, prune schedule) are equal as
// text and their graphs and syntax deeply equal: exact equality only, so
// the members of a class produce the same rows in the same order.
func (p *planner) shareSubplans() {
	if len(p.subplans) < 2 {
		return
	}
	p.qp.shares = map[any]*subplan{}
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
			p.qp.shares[rep.key] = rep
		}
		sp.class = rep.class
		p.qp.shares[sp.key] = sp
	}
	for _, sp := range p.subplans {
		sp.syntax = subplanSyntax{} // a cached plan keeps its classes, not what told them apart
	}
}

// recordElem notes the row count after a group element's join (tracked
// plans only).
func (qp *queryPlan) recordElem(g *Group, idx, rows int) {
	if qp != nil && qp.track {
		qp.elems[elemRef{g, idx}].Record(rows)
	}
}

// recordFilter notes the row count surviving one filter application.
func (qp *queryPlan) recordFilter(ref filterRef, rows int) {
	if qp != nil && qp.track {
		qp.filters[ref].Record(rows)
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
	// Engine.DisableWCOJ ablation knob), leaving every segment binary.
	noWCOJ bool
	// subplans lists what could be shared; see shareSubplans.
	subplans []*subplan
}

// buildPlan optimizes q against the current statistics catalog. track
// enables actual-cardinality recording (EXPLAIN); tracked plans must not be
// shared across evaluations.
func (e *Engine) buildPlan(q *Query, track bool) *queryPlan {
	stats := e.Store.Stats() // before RLock: Stats may itself lock
	p := &planner{
		st:    e.Store,
		stats: stats,
		dict:  e.Store.Dict(),
		qp: &queryPlan{
			epoch:     stats.Epoch,
			track:     track,
			bgps:      map[bgpRef]*bgpPlan{},
			elems:     map[elemRef]*plan.Node{},
			filters:   map[filterRef]*plan.Node{},
			results:   map[*Query]*plan.Node{},
			aggs:      map[*Query]*plan.Node{},
			distincts: map[*Query]*plan.Node{},
		},
		uses:   map[string]int{},
		noWCOJ: e.DisableWCOJ,
	}
	countQueryUses(q, p.uses)
	// The pattern-cardinality probes read index map lengths; hold the read
	// lock so they cannot race a concurrent writer.
	e.Store.RLock()
	p.qp.root = p.planQuery(q, e.DefaultGraphs)
	e.Store.RUnlock()
	p.shareSubplans()
	return p.qp
}

// planQuery mirrors evaluator.evalQueryRows.
func (p *planner) planQuery(q *Query, graphs []string) *plan.Node {
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
	node := plan.NewNode("select", detail)
	p.qp.results[q] = node
	node.Add(p.planGroup(q.Where, graphs, ""))
	if q.HasAggregates() {
		agg := plan.NewNode("aggregate", aggDetail(q))
		p.qp.aggs[q] = agg
		node.Add(agg)
	}
	if len(q.OrderBy) > 0 {
		node.Add(plan.NewNode("order", fmt.Sprintf("%d keys", len(q.OrderBy))))
	}
	if q.Distinct {
		d := plan.NewNode("distinct", "")
		p.qp.distincts[q] = d
		node.Add(d)
	}
	if q.Limit >= 0 || q.Offset > 0 {
		node.Add(plan.NewNode("slice", sliceDetail(q)))
	}
	return node
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

// groupFilterPlan tracks one group filter through static placement.
type groupFilterPlan struct {
	cond   Expression
	ref    filterRef
	vars   []string
	placed bool
}

// planGroup mirrors evaluator.evalGroup: groups always evaluate from the
// unit solution, so the bound-variable set starts empty and accumulates
// across the group's own elements.
func (p *planner) planGroup(g *Group, graphs []string, override string) *plan.Node {
	active := graphs
	if override != "" {
		active = []string{override}
	}
	node := plan.NewNode("group", "")
	bound := map[string]bool{}

	var filters []groupFilterPlan
	for _, el := range g.Elems {
		if f, ok := el.(FilterElem); ok {
			filters = append(filters, groupFilterPlan{
				cond: f.Cond,
				ref:  filterRef{g, len(filters)},
				vars: exprVars(f.Cond),
			})
		}
	}

	seg := 0
	leading := true // nothing but patterns and filters so far: the input is the unit solution
	var pending []TriplePattern
	flush := func() {
		if len(pending) == 0 {
			leading = false
			return
		}
		nodes := p.planBGP(g, seg, pending, active, bound, filters)
		if leading {
			syntax := subplanSyntax{graphs: active, patterns: pending}
			for _, f := range filters {
				if f.placed {
					syntax.pushed = append(syntax.pushed, f.cond)
				}
			}
			p.subplans = append(p.subplans, &subplan{key: p.qp.bgps[bgpRef{g, seg}], syntax: syntax, nodes: nodes})
		}
		node.Add(nodes...)
		seg++
		leading, pending = false, nil
	}
	for idx, el := range g.Elems {
		switch e := el.(type) {
		case BGPElem:
			pending = append(pending, e.Pattern)
		case FilterElem:
			// Placed during BGP planning or left residual below.
		case BindElem:
			flush()
			node.Add(plan.NewNode("bind", "?"+e.Var))
			bound[e.Var] = true
		case OptionalElem:
			flush()
			jn := plan.NewNode("leftjoin", "optional").Add(p.planGroup(e.Group, graphs, override))
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
			for _, v := range e.Group.scopeVars() {
				bound[v] = true
			}
		case UnionElem:
			flush()
			jn := plan.NewNode("join", "union")
			for _, b := range e.Branches {
				jn.Add(p.planGroup(b, graphs, override))
				for _, v := range b.scopeVars() {
					bound[v] = true
				}
			}
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
		case GraphElem:
			flush()
			jn := plan.NewNode("join", "graph <"+e.Graph+">").Add(p.planGroup(e.Group, graphs, e.Graph))
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
			for _, v := range e.Group.scopeVars() {
				bound[v] = true
			}
		case GroupElem:
			flush()
			jn := plan.NewNode("join", "group").Add(p.planGroup(e.Group, graphs, override))
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
			for _, v := range e.Group.scopeVars() {
				bound[v] = true
			}
		case SubQueryElem:
			flush()
			// Subqueries evaluate against the group's graphs, not a GRAPH
			// override (mirroring evalGroup).
			sub := p.planQuery(e.Query, graphs)
			p.subplans = append(p.subplans, &subplan{key: e.Query, syntax: subplanSyntax{graphs: graphs, query: e.Query}, nodes: []*plan.Node{sub}})
			jn := plan.NewNode("join", "subquery").Add(sub)
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
			for _, v := range e.Query.projectedVars() {
				bound[v] = true
			}
		case PathElem:
			flush()
			jn := plan.NewNode("path", e.String())
			p.qp.elems[elemRef{g, idx}] = jn
			node.Add(jn)
			if e.S.IsVar {
				bound[e.S.Var] = true
			}
			if e.O.IsVar {
				bound[e.O.Var] = true
			}
		}
	}
	flush()
	for i := range filters {
		if !filters[i].placed {
			node.Add(p.filterNode(filters[i].ref, filters[i].cond, "residual"))
		}
	}
	return node
}

// filterNode builds and registers the plan node of one group filter.
func (p *planner) filterNode(ref filterRef, cond Expression, placement string) *plan.Node {
	n := plan.NewNode("filter", exprText(cond))
	if placement != "" {
		n.Detail += " [" + placement + "]"
	}
	p.qp.filters[ref] = n
	return n
}

// planBGP orders one BGP segment and computes its filter placements and
// prune schedule. bound is the group's progressively-bound variable set; it
// is updated with the segment's variables.
func (p *planner) planBGP(g *Group, seg int, patterns []TriplePattern, active []string, bound map[string]bool, filters []groupFilterPlan) []*plan.Node {
	pats := make([]plan.Pattern, len(patterns))
	for i := range patterns {
		pats[i] = p.planPattern(patterns[i], active)
	}
	order, est := plan.Order(pats, bound)
	bp := &bgpPlan{order: order, est: est, drop: make([][]string, len(order))}

	// Prune schedule: a variable whose every use in the whole query lies
	// within this segment's patterns is dead once its last planned pattern
	// has executed.
	segOcc := map[string]int{}
	for _, pat := range patterns {
		for _, v := range pat.Vars() {
			segOcc[v]++
		}
	}
	lastStep := map[string]int{}
	for step, pi := range order {
		for _, v := range patterns[pi].Vars() {
			lastStep[v] = step
		}
	}
	for v, occ := range segOcc {
		if p.uses[v] == occ {
			s := lastStep[v]
			bp.drop[s] = append(bp.drop[s], v)
		}
	}
	for _, d := range bp.drop {
		sort.Strings(d)
	}

	// Star/cycle segments may beat the binary pipeline with one multiway
	// intersection. The wcoj node replaces the scan chain in the plan tree;
	// the binary nodes are still built (below, filter-free) so the runtime
	// fallback can record actuals, and the segment's drops collapse into one
	// end-of-segment prune.
	if w := p.tryWCOJ(patterns, pats, active, bound, est); w != nil {
		bp.wcoj = w
		w.endDrop = sortedUnion(bp.drop)
		bp.nodes = make([]*plan.Node, len(order))
		for step, pi := range order {
			n := plan.NewNode("scan", pats[pi].Label)
			n.Est = est[step]
			bp.nodes[step] = n
		}
		for _, pat := range patterns {
			for _, v := range pat.Vars() {
				bound[v] = true
			}
		}
		p.placeReady(w.node, filters, bound, w.endDrop)
		p.qp.bgps[bgpRef{g, seg}] = bp
		return []*plan.Node{w.node}
	}

	nodes := make([]*plan.Node, len(order))
	for step, pi := range order {
		n := plan.NewNode("scan", pats[pi].Label)
		n.Est = est[step]
		for _, v := range patterns[pi].Vars() {
			bound[v] = true
		}
		p.placeReady(n, filters, bound, bp.drop[step])
		nodes[step] = n
	}
	bp.nodes = nodes
	p.qp.bgps[bgpRef{g, seg}] = bp
	return nodes
}

// placeReady hangs on n the static placement of every unplaced filter whose
// variables are all bound (annotation only; the evaluator applies filters
// by the same rule at run time), then the prune of the dropped columns.
func (p *planner) placeReady(n *plan.Node, filters []groupFilterPlan, bound map[string]bool, drop []string) {
	for fi := range filters {
		f := &filters[fi]
		if !f.placed && !slices.ContainsFunc(f.vars, func(v string) bool { return !bound[v] }) {
			n.Add(p.filterNode(f.ref, f.cond, "pushed down"))
			f.placed = true
		}
	}
	if len(drop) > 0 {
		n.Add(plan.NewNode("prune", "?"+strings.Join(drop, " ?")))
	}
}

// planPattern resolves one triple pattern against the statistics catalog:
// base cardinality (exact O(1) index probes when subject or object is a
// constant, per-predicate catalog counts otherwise) and the per-position
// selectivity applied when that position's variable arrives already bound.
func (p *planner) planPattern(pat TriplePattern, graphs []string) plan.Pattern {
	out := plan.Pattern{Label: pat.String(), Sel: [3]float64{1, 1, 1}}
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
// unrelated scope) keeps the variable alive for pruning purposes.
func countQueryUses(q *Query, uses map[string]int) {
	if q.Star && q.Where != nil {
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
	for _, el := range g.Elems {
		switch e := el.(type) {
		case BGPElem:
			for _, v := range e.Pattern.Vars() {
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

// exprText renders an expression compactly for plan trees (best effort; not
// guaranteed to re-parse).
func exprText(e Expression) string {
	switch x := e.(type) {
	case ExVar:
		return "?" + x.Name
	case ExTerm:
		return x.Term.String()
	case ExBinary:
		return exprText(x.L) + " " + x.Op + " " + exprText(x.R)
	case ExUnary:
		return x.Op + "(" + exprText(x.E) + ")"
	case ExCall:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprText(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case ExIn:
		items := make([]string, len(x.List))
		for i, a := range x.List {
			items[i] = exprText(a)
		}
		op := "IN"
		if x.Neg {
			op = "NOT IN"
		}
		return exprText(x.E) + " " + op + " (" + strings.Join(items, ", ") + ")"
	case ExAgg:
		arg := "*"
		if x.Arg != nil {
			arg = exprText(x.Arg)
		}
		if x.Distinct {
			arg = "DISTINCT " + arg
		}
		return x.Fn + "(" + arg + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}
