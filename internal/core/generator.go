package core

import (
	"fmt"
	"slices"

	"rdfframes/internal/sparql"
)

// Generate replays an operator chain into a query model (paper §4.2). It is
// the Generator component of Figure 1: operators are consumed in FIFO order
// and each one edits the model, nesting a subquery only in the three cases
// where the semantics require it:
//
//  1. expand or filter applied to a grouped frame,
//  2. join involving a grouped frame,
//  3. full outer join (UNION of two OPTIONAL branches, both wrapped).
func Generate(c *Chain) (*QueryModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := &generator{chain: c}
	m, err := g.run(c.Ops)
	if err != nil {
		return nil, err
	}
	if len(g.pending) > 0 {
		return nil, fmt.Errorf("core: filter column %q is not in the frame", g.pending[0].Col)
	}
	return m, nil
}

// BuildSPARQL compiles an operator chain all the way to SPARQL text.
func BuildSPARQL(c *Chain) (string, error) {
	m, err := Generate(c)
	if err != nil {
		return "", err
	}
	return sparql.Render(Translate(m)), nil
}

type generator struct {
	chain *Chain
	// pending are filter conditions on columns not visible in the current
	// (grouped) frame; they attach once a later join or expand makes the
	// column visible again. This reproduces the paper's topic-modeling
	// query, where a post-grouping filter on a pre-grouping column lands
	// in the outer query after the join re-exposes it.
	pending []Condition
}

func (g *generator) run(ops []Op) (*QueryModel, error) {
	m := newModel()
	// aggCols names the aggregate result columns of the current grouped
	// model; filters on them become HAVING conditions.
	aggCols := map[string]bool{}
	var pendingGroup []string
	// groupSrcVars snapshots the columns visible before grouping, so that
	// a second aggregation (e.g. count then sum) can still validate its
	// source column after the first aggregation restricted the frame.
	var groupSrcVars []string

	for _, op := range ops {
		switch o := op.(type) {
		case SeedOp:
			m.addTriple(GraphTriple{o.GraphURI, sparql.TriplePattern{S: o.S, P: o.P, O: o.O}})

		case ExpandOp:
			if !m.HasVar(o.Src) {
				return nil, fmt.Errorf("core: expand source column %q is not in the frame", o.Src)
			}
			if m.HasVar(o.New) {
				return nil, fmt.Errorf("core: expand target column %q already exists", o.New)
			}
			if m.IsGrouped() || m.HasModifiers() {
				m = m.wrap() // Case 1
				aggCols = map[string]bool{}
			}
			t := GraphTriple{o.GraphURI, sparql.TriplePattern{S: sparql.Variable(o.Src), P: sparql.TermNode(o.Pred), O: sparql.Variable(o.New)}}
			if o.In {
				t.S, t.O = t.O, t.S
			}
			if o.Optional {
				opt := newModel()
				opt.addTriple(t)
				m.Optionals = append(m.Optionals, opt)
				m.addVar(o.New)
			} else {
				m.addTriple(t)
			}
			g.attachPending(m)

		case FilterOp:
			for _, cond := range o.Conds {
				switch {
				case m.IsGrouped() && aggCols[cond.Col]:
					m.Having = append(m.Having, cond.Expr)
				case m.IsGrouped() && slices.Contains(m.GroupByCols, cond.Col):
					// Case 1: the filter must see post-aggregation rows.
					m = m.wrap()
					aggCols = map[string]bool{}
					m.addFilter(cond.Expr)
				case m.HasVar(cond.Col):
					if m.HasModifiers() {
						m = m.wrap()
						aggCols = map[string]bool{}
					}
					m.addFilter(cond.Expr)
				case m.IsGrouped():
					// Column hidden by grouping: defer until a join or
					// expand re-exposes it.
					g.pending = append(g.pending, cond)
				default:
					return nil, fmt.Errorf("core: filter column %q is not in the frame", cond.Col)
				}
			}

		case GroupByOp:
			if m.IsGrouped() || m.HasModifiers() {
				m = m.wrap()
				aggCols = map[string]bool{}
			}
			for _, c := range o.Cols {
				if !m.HasVar(c) {
					return nil, fmt.Errorf("core: grouping column %q is not in the frame", c)
				}
			}
			pendingGroup = o.Cols
			groupSrcVars = m.vars

		case AggregationOp:
			if !slices.Contains(groupSrcVars, o.Agg.Src) {
				return nil, fmt.Errorf("core: aggregation column %q is not in the frame", o.Agg.Src)
			}
			if len(m.GroupByCols) == 0 {
				m.GroupByCols = pendingGroup
			}
			m.Aggs = append(m.Aggs, o.Agg)
			m.Distinct = true // grouped subqueries project DISTINCT, as the paper's output does
			aggCols[o.Agg.New] = true
			// Grouping restricts the visible columns to the grouping
			// columns plus the aggregate results (paper §3.2).
			m.vars = append(append([]string(nil), m.GroupByCols...), aggNames(m.Aggs)...)

		case AggregateOp:
			if !m.HasVar(o.Agg.Src) {
				return nil, fmt.Errorf("core: aggregate column %q is not in the frame", o.Agg.Src)
			}
			if m.IsGrouped() || m.HasModifiers() {
				m = m.wrap()
				aggCols = map[string]bool{}
			}
			m.Aggs = append(m.Aggs, o.Agg)
			m.SelectVars = []string{o.Agg.New}
			m.vars = []string{o.Agg.New}

		case SelectColsOp:
			for _, c := range o.Cols {
				if !m.HasVar(c) {
					return nil, fmt.Errorf("core: selected column %q is not in the frame", c)
				}
			}
			m.SelectVars = append([]string(nil), o.Cols...)

		case SortOp:
			for _, k := range o.Keys {
				if !m.HasVar(k.Col) {
					return nil, fmt.Errorf("core: sort column %q is not in the frame", k.Col)
				}
			}
			m.Order = append(m.Order, o.Keys...)

		case HeadOp:
			m.Limit = o.K
			m.Offset = o.Offset

		case JoinOp:
			right, err := g.runJoinSide(o)
			if err != nil {
				return nil, err
			}
			if o.NewCol != "" {
				m.renameVar(o.Col, o.NewCol)
				right.renameVar(o.OtherCol, o.NewCol)
			}
			m = joinModels(m, right, o.Type)
			aggCols = map[string]bool{}
			g.attachPending(m)

		default:
			return nil, fmt.Errorf("core: unknown operator %T", op)
		}
	}
	return m, nil
}

func (g *generator) runJoinSide(o JoinOp) (*QueryModel, error) {
	sub := &generator{chain: o.Other}
	right, err := sub.run(o.Other.Ops)
	if err != nil {
		return nil, err
	}
	// Filters deferred inside the joined frame become this generator's
	// responsibility: the join may re-expose their columns.
	g.pending = append(g.pending, sub.pending...)
	joinCol := o.OtherCol
	if joinCol == "" {
		joinCol = o.Col
	}
	if !right.HasVar(joinCol) {
		return nil, fmt.Errorf("core: join column %q is not in the right frame", joinCol)
	}
	return right, nil
}

// attachPending moves deferred filter conditions into the model for every
// column that has become visible.
func (g *generator) attachPending(m *QueryModel) {
	var still []Condition
	for _, c := range g.pending {
		if m.HasVar(c.Col) && !m.IsGrouped() {
			m.addFilter(c.Expr)
		} else {
			still = append(still, c)
		}
	}
	g.pending = still
}

// needsWrap reports whether a model must become a subquery when joined with
// another model (paper §4.2, Case 2).
func needsWrap(m *QueryModel) bool {
	return m.IsGrouped() || m.HasModifiers() || m.Distinct || len(m.SelectVars) > 0
}

// joinModels combines two query models per the join type.
func joinModels(left, right *QueryModel, jt JoinType) *QueryModel {
	if jt == FullOuterJoin {
		// Case 3: (left OPTIONAL right) UNION (right OPTIONAL left), both
		// sides wrapped in nested queries.
		mk := func(a, b *QueryModel) *QueryModel {
			branch := newModel()
			branch.SubQueries = append(branch.SubQueries, a)
			b.ForceSubquery = true
			branch.Optionals = append(branch.Optionals, b)
			branch.addVars(a.projectedVars())
			branch.addVars(b.projectedVars())
			return branch
		}
		out := newModel()
		out.Unions = append(out.Unions,
			mk(cloneModel(left), cloneModel(right)),
			mk(cloneModel(right), cloneModel(left)))
		out.addVars(left.projectedVars())
		out.addVars(right.projectedVars())
		return out
	}

	out := newModel()
	mergeSide := func(m *QueryModel, optional bool) {
		switch {
		case optional && needsWrap(m):
			m.ForceSubquery = true
			out.Optionals = append(out.Optionals, m)
			out.addVars(m.projectedVars())
		case optional:
			out.Optionals = append(out.Optionals, m)
			out.addVars(m.vars)
		case needsWrap(m):
			out.SubQueries = append(out.SubQueries, m)
			out.addVars(m.projectedVars())
		default:
			out.mergeInto(m)
		}
	}
	switch jt {
	case LeftOuterJoin:
		mergeSide(left, false)
		mergeSide(right, true)
	case RightOuterJoin:
		mergeSide(right, false)
		mergeSide(left, true)
	default: // InnerJoin
		mergeSide(left, false)
		mergeSide(right, false)
	}
	return out
}

// cloneModel deep-copies a model so the two branches of a full outer join
// can be rendered (and renamed) independently.
func cloneModel(m *QueryModel) *QueryModel {
	if m == nil {
		return nil
	}
	c := *m
	c.SelectVars = append([]string(nil), m.SelectVars...)
	c.Triples = append([]GraphTriple(nil), m.Triples...)
	c.Filters = append([]sparql.Expression(nil), m.Filters...)
	c.GroupByCols = append([]string(nil), m.GroupByCols...)
	c.Aggs = append([]AggSpec(nil), m.Aggs...)
	c.Having = append([]sparql.Expression(nil), m.Having...)
	c.Order = append([]SortKey(nil), m.Order...)
	c.vars = append([]string(nil), m.vars...)
	c.Optionals = nil
	for _, o := range m.Optionals {
		c.Optionals = append(c.Optionals, cloneModel(o))
	}
	c.SubQueries = nil
	for _, s := range m.SubQueries {
		c.SubQueries = append(c.SubQueries, cloneModel(s))
	}
	c.Unions = nil
	for _, u := range m.Unions {
		c.Unions = append(c.Unions, cloneModel(u))
	}
	return &c
}
