package core

import (
	"fmt"
	"slices"

	"rdfframes/internal/sparql"
)

// NaiveTranslate compiles an operator chain with the naive query generation
// strategy the paper evaluates against: every operator becomes its own
// subquery, and one outer query joins them all at a single level of
// nesting. Grouping wraps everything generated so far in a further nested
// query, as in the paper's Appendices C and D.
//
// One deliberate deviation from Appendix C: an optional expand is emitted
// as OPTIONAL { { SELECT ... } } in the outer query rather than as a plain
// subquery containing a dangling OPTIONAL, because the latter does not
// preserve left-outer-join semantics under composition; the paper verifies
// all alternatives return identical results, which requires this form.
func NaiveTranslate(c *Chain) (*sparql.Query, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := newNaive()
	if err := n.run(c.Ops); err != nil {
		return nil, err
	}
	if len(n.pending) > 0 {
		return nil, fmt.Errorf("core: filter column %q is not in the frame", n.pending[0].Col)
	}
	return &sparql.Query{
		Star:    len(n.proj) == 0,
		Items:   selectItems(n.proj),
		From:    n.graphs,
		Where:   &sparql.Group{Elems: n.parts},
		OrderBy: orderKeys(n.order),
		Limit:   n.limit,
		Offset:  n.offset,
	}, nil
}

type naive struct {
	parts   []sparql.Element    // group elements of the outer query
	binder  map[string]*binding // column -> the pattern that bound it
	scope   map[string]bool     // columns currently visible
	pending []Condition         // filters deferred until their column is visible
	group   []string            // columns of the last GroupByOp
	graphs  []string
	proj    []string // final projection (empty = *)
	order   []SortKey
	limit   int
	offset  int
}

// binding is a triple pattern of the chain and the columns it binds.
type binding struct {
	pat  sparql.TriplePattern
	cols []string
}

func newNaive() *naive {
	return &naive{binder: map[string]*binding{}, scope: map[string]bool{}, limit: -1}
}

func (n *naive) addGraph(g string) {
	if g != "" && !slices.Contains(n.graphs, g) {
		n.graphs = append(n.graphs, g)
	}
}

func (n *naive) run(ops []Op) error {
	for _, op := range ops {
		switch o := op.(type) {
		case SeedOp:
			n.addGraph(o.GraphURI)
			b := &binding{pat: sparql.TriplePattern{S: o.S, P: o.P, O: o.O}}
			b.cols = b.pat.AppendVars(nil)
			for _, c := range b.cols {
				n.binder[c] = b
				n.scope[c] = true
			}
			n.parts = append(n.parts, subquery(selectItems(b.cols), sparql.BGPElem{Pattern: b.pat}))

		case ExpandOp:
			n.addGraph(o.GraphURI)
			s, obj := o.Src, o.New
			if o.In {
				s, obj = obj, s
			}
			b := &binding{
				pat:  sparql.TriplePattern{S: sparql.Variable(s), P: sparql.TermNode(o.Pred), O: sparql.Variable(obj)},
				cols: []string{o.Src, o.New},
			}
			n.binder[o.New] = b
			n.scope[o.New] = true
			sq := subquery(selectItems(b.cols), sparql.BGPElem{Pattern: b.pat})
			if o.Optional {
				sq = optional(sq)
			}
			n.parts = append(n.parts, sq)
			n.attachPending()

		case FilterOp:
			for _, cond := range o.Conds {
				b := n.binder[cond.Col]
				switch {
				case b != nil && onlyVars(cond.Expr, func(v string) bool { return slices.Contains(b.cols, v) }):
					// Single-column condition: repeat the binding pattern
					// in its own filtering subquery (Appendix C style).
					n.parts = append(n.parts, subquery(selectItems(b.cols),
						sparql.BGPElem{Pattern: b.pat}, sparql.FilterElem{Cond: cond.Expr}))
				case onlyVars(cond.Expr, func(v string) bool { return n.scope[v] }):
					// Multi-column or subquery-produced condition: a bare
					// filter over the joined result.
					n.parts = append(n.parts, sparql.FilterElem{Cond: cond.Expr})
				default:
					// Column hidden by grouping; emit once a join or expand
					// brings it back into scope.
					n.pending = append(n.pending, cond)
				}
			}

		case GroupByOp:
			// Consumed by the aggregations that follow it.
			n.group = o.Cols

		case AggregationOp, AggregateOp:
			var agg AggSpec
			var groupCols []string
			if a, ok := op.(AggregationOp); ok {
				agg = a.Agg
				groupCols = slices.Clone(n.group)
			} else {
				agg = op.(AggregateOp).Agg
			}
			q := selectAll(n.parts)
			q.Star, q.GroupBy = false, groupCols
			q.Items = append(selectItems(groupCols), sparql.SelectItem{Var: agg.New, Expr: aggExpr(agg)})
			n.parts = []sparql.Element{sparql.GroupElem{Group: nest(q)}}
			// Columns bound inside the group subquery are no longer
			// directly filterable by pattern, and only the grouping and
			// aggregate columns remain in scope.
			n.binder = map[string]*binding{}
			n.scope = map[string]bool{agg.New: true}
			for _, gc := range groupCols {
				n.scope[gc] = true
			}
			if _, ok := op.(AggregateOp); ok {
				n.proj = []string{agg.New}
			}

		case SelectColsOp:
			n.proj = append([]string(nil), o.Cols...)

		case SortOp:
			n.order = append(n.order, o.Keys...)

		case HeadOp:
			n.limit, n.offset = o.K, o.Offset

		case JoinOp:
			right := newNaive()
			if err := right.run(o.Other.Ops); err != nil {
				return err
			}
			for _, g := range right.graphs {
				n.addGraph(g)
			}
			if o.NewCol != "" {
				n.rename(o.Col, o.NewCol)
				right.rename(o.OtherCol, o.NewCol)
			}
			left := n.parts
			switch o.Type {
			case InnerJoin:
				n.parts = append(left, subquery(nil, right.parts...))
			case LeftOuterJoin:
				n.parts = append(left, optional(subquery(nil, right.parts...)))
			case RightOuterJoin:
				n.parts = []sparql.Element{subquery(nil, right.parts...), optional(subquery(nil, left...))}
			case FullOuterJoin:
				// (left OPTIONAL right) UNION (right OPTIONAL left).
				branch := func(a, b []sparql.Element) *sparql.Group {
					return nest(selectAll(append(slices.Clip(a), optional(subquery(nil, b...)))))
				}
				n.parts = []sparql.Element{sparql.UnionElem{Branches: []*sparql.Group{
					branch(left, right.parts), branch(right.parts, left),
				}}}
			}
			// The join may re-expose columns for later filters; merge the
			// right side's binders, scope, and deferred filters.
			for col, b := range right.binder {
				if _, exists := n.binder[col]; !exists {
					n.binder[col] = b
				}
			}
			for col := range right.scope {
				n.scope[col] = true
			}
			n.pending = append(n.pending, right.pending...)
			n.attachPending()

		default:
			return fmt.Errorf("core: naive translation: unknown operator %T", op)
		}
	}
	return nil
}

// attachPending emits, as filters over the joined result, the deferred
// conditions whose column is visible again.
func (n *naive) attachPending() {
	var still []Condition
	for _, cond := range n.pending {
		if n.scope[cond.Col] {
			n.parts = append(n.parts, sparql.FilterElem{Cond: cond.Expr})
		} else {
			still = append(still, cond)
		}
	}
	n.pending = still
}

// rename renames a column in everything generated so far and in the state
// later operators consult.
func (n *naive) rename(old, new string) {
	renameElems(n.parts, old, new)
	for _, b := range n.binder {
		renamePattern(&b.pat, old, new)
		renameStrings(b.cols, old, new)
	}
	if b, ok := n.binder[old]; ok {
		delete(n.binder, old)
		n.binder[new] = b
	}
	if n.scope[old] {
		delete(n.scope, old)
		n.scope[new] = true
	}
	renameStrings(n.proj, old, new)
	for i := range n.order {
		if n.order[i].Col == old {
			n.order[i].Col = new
		}
	}
}

// renameElems renames a variable in place through generated group
// elements. An element that two parts share is renamed twice, which the
// second time changes nothing.
func renameElems(elems []sparql.Element, old, new string) {
	for i, el := range elems {
		switch e := el.(type) {
		case sparql.BGPElem:
			renamePattern(&e.Pattern, old, new)
			elems[i] = e
		case sparql.FilterElem:
			elems[i] = sparql.FilterElem{Cond: renameExpr(e.Cond, old, new)}
		case sparql.GroupElem:
			renameElems(e.Group.Elems, old, new)
		case sparql.OptionalElem:
			renameElems(e.Group.Elems, old, new)
		case sparql.UnionElem:
			for _, br := range e.Branches {
				renameElems(br.Elems, old, new)
			}
		case sparql.SubQueryElem:
			q := e.Query
			for j := range q.Items {
				if q.Items[j].Var == old {
					q.Items[j].Var = new
				}
				if q.Items[j].Expr != nil {
					q.Items[j].Expr = renameExpr(q.Items[j].Expr, old, new)
				}
			}
			renameStrings(q.GroupBy, old, new)
			renameElems(q.Where.Elems, old, new)
		}
	}
}

func renamePattern(p *sparql.TriplePattern, old, new string) {
	for _, nd := range []*sparql.Node{&p.S, &p.P, &p.O} {
		if nd.IsVar && nd.Var == old {
			nd.Var = new
		}
	}
}

// onlyVars reports whether every variable of e satisfies in.
func onlyVars(e sparql.Expression, in func(name string) bool) bool {
	ok := true
	sparql.MapVars(e, func(name string) sparql.Expression {
		ok = ok && in(name)
		return nil
	})
	return ok
}

// subquery is the group element `{ SELECT items WHERE { body } }`, with
// SELECT * when there are no items.
func subquery(items []sparql.SelectItem, body ...sparql.Element) sparql.Element {
	q := selectAll(body)
	q.Star, q.Items = len(items) == 0, items
	return sparql.GroupElem{Group: nest(q)}
}

// selectAll is `SELECT * WHERE { body }`.
func selectAll(body []sparql.Element) *sparql.Query {
	return &sparql.Query{Star: true, Where: &sparql.Group{Elems: body}, Limit: -1}
}

// optional is `OPTIONAL { el }`.
func optional(el sparql.Element) sparql.Element {
	return sparql.OptionalElem{Group: &sparql.Group{Elems: []sparql.Element{el}}}
}
