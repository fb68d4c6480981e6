package core

import (
	"strings"

	"rdfframes/internal/sparql"
)

// Translate maps a query model to the query it stands for (paper §4.3).
// Each model component becomes the corresponding SPARQL construct; inner
// models become subqueries; when patterns span multiple graphs, GRAPH
// blocks scope each pattern subset to its graph. sparql.Render writes the
// query's text.
func Translate(m *QueryModel) *sparql.Query {
	graphs := m.graphs(nil, true)
	q := modelQuery(m, len(graphs) > 1)
	q.From = graphs
	return q
}

// modelQuery builds the SELECT of a model; multiGraph puts each triple in
// a GRAPH block. A grouped model with no explicit projection selects its
// grouping columns and aggregates; aggregate result columns are projected
// as (AGG(...) AS ?col).
func modelQuery(m *QueryModel, multiGraph bool) *sparql.Query {
	q := &sparql.Query{Distinct: m.Distinct, Where: modelBody(m, multiGraph), Limit: m.Limit, Offset: m.Offset}
	vars := m.SelectVars
	if len(vars) == 0 && m.IsGrouped() {
		vars = append(append([]string(nil), m.GroupByCols...), aggNames(m.Aggs)...)
	}
	q.Star = len(vars) == 0
	q.Items = selectItems(vars)
	for i, it := range q.Items {
		if a, ok := aggNamed(m.Aggs, it.Var); ok {
			q.Items[i].Expr = aggExpr(a)
		}
	}
	if len(m.GroupByCols) > 0 {
		q.GroupBy = m.GroupByCols
	}
	for _, h := range m.Having {
		// SPARQL HAVING cannot reference SELECT aliases, so references to
		// aggregate result columns become the aggregates themselves (the
		// paper's queries emit HAVING ( COUNT(DISTINCT ?movie) >= 50 )).
		q.Having = append(q.Having, sparql.MapVars(h, func(name string) sparql.Expression {
			if a, ok := aggNamed(m.Aggs, name); ok {
				return aggExpr(a)
			}
			return nil
		}))
	}
	q.OrderBy = orderKeys(m.Order)
	return q
}

func modelBody(m *QueryModel, multiGraph bool) *sparql.Group {
	var elems []sparql.Element

	// Triple patterns, grouped per graph when the query spans multiple
	// graphs.
	if multiGraph {
		for _, g := range m.graphs(nil, false) {
			var in []sparql.Element
			for _, t := range m.Triples {
				if t.Graph == g {
					in = append(in, sparql.BGPElem{Pattern: t.TriplePattern})
				}
			}
			elems = append(elems, sparql.GraphElem{Graph: g, Group: &sparql.Group{Elems: in}})
		}
	}
	for _, t := range m.Triples {
		if !multiGraph || t.Graph == "" {
			elems = append(elems, sparql.BGPElem{Pattern: t.TriplePattern})
		}
	}

	for _, sub := range m.SubQueries {
		elems = append(elems, sparql.GroupElem{Group: nest(modelQuery(sub, multiGraph))})
	}

	if len(m.Unions) > 0 {
		branches := make([]*sparql.Group, len(m.Unions))
		for i, u := range m.Unions {
			if u.isPatternOnly() {
				branches[i] = modelBody(u, multiGraph)
			} else {
				branches[i] = nest(modelQuery(u, multiGraph))
			}
		}
		elems = append(elems, sparql.UnionElem{Branches: branches})
	}

	for _, f := range m.Filters {
		elems = append(elems, sparql.FilterElem{Cond: f})
	}

	// OPTIONAL blocks come last: a left join applies to everything the
	// group has produced, so an optional expand recorded after a join (or
	// union) must not precede those patterns in the query.
	for _, opt := range m.Optionals {
		var g *sparql.Group
		if opt.isPatternOnly() && !opt.ForceSubquery {
			g = modelBody(opt, multiGraph)
		} else {
			g = nest(modelQuery(opt, multiGraph))
		}
		elems = append(elems, sparql.OptionalElem{Group: g})
	}
	return &sparql.Group{Elems: elems}
}

// nest returns the group `{ SELECT … }` holding a subquery.
func nest(q *sparql.Query) *sparql.Group {
	return &sparql.Group{Elems: []sparql.Element{sparql.SubQueryElem{Query: q}}}
}

// selectItems projects plain columns; none is nil, as for SELECT *.
func selectItems(cols []string) []sparql.SelectItem {
	if len(cols) == 0 {
		return nil
	}
	items := make([]sparql.SelectItem, len(cols))
	for i, c := range cols {
		items[i].Var = c
	}
	return items
}

func orderKeys(keys []SortKey) []sparql.OrderKey {
	if len(keys) == 0 {
		return nil
	}
	out := make([]sparql.OrderKey, len(keys))
	for i, k := range keys {
		out[i] = sparql.OrderKey{Expr: sparql.ExVar{Name: k.Col}, Desc: k.Desc}
	}
	return out
}

// aggExpr is the aggregate expression an aggregation computes.
func aggExpr(a AggSpec) sparql.Expression {
	return sparql.ExAgg{Fn: strings.ToLower(a.Fn), Distinct: a.Distinct, Arg: sparql.ExVar{Name: a.Src}}
}

// aggNamed returns the aggregation whose result column is name.
func aggNamed(aggs []AggSpec, name string) (AggSpec, bool) {
	for _, a := range aggs {
		if a.New == name {
			return a, true
		}
	}
	return AggSpec{}, false
}
