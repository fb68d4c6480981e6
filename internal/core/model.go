package core

import (
	"reflect"
	"slices"

	"rdfframes/internal/sparql"
)

// GraphTriple is a triple pattern tagged with the graph it matches in.
type GraphTriple struct {
	Graph string
	sparql.TriplePattern
}

// QueryModel is the intermediate representation between an operator chain
// and a SPARQL query (paper §4.1, Figure 2). A model either holds graph
// patterns directly or is a union of sub-models (Unions non-empty).
type QueryModel struct {
	// Projection. Empty SelectVars means SELECT *.
	SelectVars []string
	Distinct   bool

	// Graph matching patterns.
	Triples    []GraphTriple
	Filters    []sparql.Expression
	Optionals  []*QueryModel // rendered as OPTIONAL blocks
	SubQueries []*QueryModel // rendered as nested SELECTs
	Unions     []*QueryModel // rendered as { m1 } UNION { m2 } ...

	// Aggregation constructs.
	GroupByCols []string
	Aggs        []AggSpec
	Having      []sparql.Expression

	// Query modifiers.
	Order  []SortKey
	Limit  int // -1 when absent
	Offset int

	// ForceSubquery makes the translator render this model as a nested
	// SELECT even where inline patterns would be legal (the paper wraps
	// both sides of a full outer join).
	ForceSubquery bool

	// vars tracks visible columns in first-use order.
	vars []string
}

// newModel returns an empty model with no limit.
func newModel() *QueryModel {
	return &QueryModel{Limit: -1}
}

// IsGrouped reports whether the model computes grouping/aggregation, which
// drives the paper's three nesting cases.
func (m *QueryModel) IsGrouped() bool {
	return len(m.GroupByCols) > 0 || len(m.Aggs) > 0
}

// HasModifiers reports whether solution modifiers are set; pattern-adding
// operators arriving after modifiers force a nesting step.
func (m *QueryModel) HasModifiers() bool {
	return len(m.Order) > 0 || m.Limit >= 0 || m.Offset > 0
}

// HasVar reports whether the column is visible in the model.
func (m *QueryModel) HasVar(name string) bool { return slices.Contains(m.vars, name) }

func (m *QueryModel) addVar(name string) {
	if name == "" || m.HasVar(name) {
		return
	}
	m.vars = append(m.vars, name)
}

func (m *QueryModel) addVars(names []string) {
	for _, v := range names {
		m.addVar(v)
	}
}

func (m *QueryModel) addTriple(t GraphTriple) {
	if slices.Contains(m.Triples, t) {
		return // merging branched frames must not duplicate patterns
	}
	m.Triples = append(m.Triples, t)
	var buf [3]string
	m.addVars(t.AppendVars(buf[:0]))
}

func (m *QueryModel) addFilter(e sparql.Expression) {
	for _, have := range m.Filters {
		if reflect.DeepEqual(have, e) {
			return
		}
	}
	m.Filters = append(m.Filters, e)
}

// graphs appends to out, in first-use order, the graph URIs that the
// model's triples name and, when deep, those of every model nested in it.
func (m *QueryModel) graphs(out []string, deep bool) []string {
	for _, t := range m.Triples {
		if t.Graph != "" && !slices.Contains(out, t.Graph) {
			out = append(out, t.Graph)
		}
	}
	if !deep {
		return out
	}
	for _, subs := range [][]*QueryModel{m.Optionals, m.SubQueries, m.Unions} {
		for _, sub := range subs {
			out = sub.graphs(out, true)
		}
	}
	return out
}

// projectedVars returns the columns the model exposes to an enclosing
// query: the explicit projection, or every visible column for SELECT *.
func (m *QueryModel) projectedVars() []string {
	if len(m.SelectVars) > 0 {
		return m.SelectVars
	}
	return m.vars
}

// wrap converts m into the single subquery of a fresh outer model (the
// nesting step shared by all three cases of paper §4.2).
func (m *QueryModel) wrap() *QueryModel {
	outer := newModel()
	outer.SubQueries = []*QueryModel{m}
	outer.addVars(m.projectedVars())
	return outer
}

func aggNames(aggs []AggSpec) []string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.New
	}
	return out
}

// renameVar renames a column consistently through the whole model tree
// (triples, filters, projections, grouping, aggregation, ordering). SPARQL
// variable scope spans subqueries, so the rename descends into them.
func (m *QueryModel) renameVar(old, new string) {
	if m == nil || old == new {
		return
	}
	for i := range m.Triples {
		renamePattern(&m.Triples[i].TriplePattern, old, new)
	}
	for _, es := range [][]sparql.Expression{m.Filters, m.Having} {
		for i, e := range es {
			es[i] = renameExpr(e, old, new)
		}
	}
	renameStrings(m.SelectVars, old, new)
	if slices.Contains(m.GroupByCols, old) {
		// The grouping columns are the recorded GroupByOp's own slice.
		m.GroupByCols = slices.Clone(m.GroupByCols)
		renameStrings(m.GroupByCols, old, new)
	}
	renameStrings(m.vars, old, new)
	for i := range m.Aggs {
		if m.Aggs[i].Src == old {
			m.Aggs[i].Src = new
		}
		if m.Aggs[i].New == old {
			m.Aggs[i].New = new
		}
	}
	for i := range m.Order {
		if m.Order[i].Col == old {
			m.Order[i].Col = new
		}
	}
	for _, subs := range [][]*QueryModel{m.Optionals, m.SubQueries, m.Unions} {
		for _, sub := range subs {
			sub.renameVar(old, new)
		}
	}
}

// renameExpr returns e with variable old renamed to new.
func renameExpr(e sparql.Expression, old, new string) sparql.Expression {
	return sparql.MapVars(e, func(name string) sparql.Expression {
		if name == old {
			return sparql.ExVar{Name: new}
		}
		return nil
	})
}

func renameStrings(ss []string, old, new string) {
	for i, s := range ss {
		if s == old {
			ss[i] = new
		}
	}
}

// isPatternOnly reports whether the model can be rendered inline as a group
// of patterns (no projection, grouping, or modifiers), so an OPTIONAL block
// need not wrap it in a nested SELECT.
func (m *QueryModel) isPatternOnly() bool {
	return !m.IsGrouped() && !m.HasModifiers() && !m.Distinct &&
		len(m.SelectVars) == 0 && len(m.Unions) == 0
}

// mergeInto inlines the graph patterns of src into dst (the non-nesting
// join path of paper §4.2: both frames non-grouped). Duplicate triples and
// filters introduced by branching from a cached prefix collapse.
func (dst *QueryModel) mergeInto(src *QueryModel) {
	for _, t := range src.Triples {
		dst.addTriple(t)
	}
	for _, f := range src.Filters {
		dst.addFilter(f)
	}
	dst.Optionals = append(dst.Optionals, src.Optionals...)
	dst.SubQueries = append(dst.SubQueries, src.SubQueries...)
	dst.Unions = append(dst.Unions, src.Unions...)
	dst.addVars(src.vars)
	dst.mergeModifiers(src)
}

// mergeModifiers combines solution modifiers per the paper: the union of
// selected variables, the maximum of limits, the minimum of offsets.
func (dst *QueryModel) mergeModifiers(src *QueryModel) {
	if len(dst.SelectVars) > 0 || len(src.SelectVars) > 0 {
		merged := append([]string(nil), dst.SelectVars...)
		have := map[string]bool{}
		for _, v := range merged {
			have[v] = true
		}
		for _, v := range src.SelectVars {
			if !have[v] {
				merged = append(merged, v)
			}
		}
		dst.SelectVars = merged
	}
	if src.Limit >= 0 && (dst.Limit < 0 || src.Limit > dst.Limit) {
		dst.Limit = src.Limit
	}
	if src.Offset > 0 && (dst.Offset == 0 || src.Offset < dst.Offset) {
		dst.Offset = src.Offset
	}
	dst.Order = append(dst.Order, src.Order...)
}
