package core

import (
	"strings"

	"rdfframes/internal/rdf"
)

// GraphTriple is a triple pattern tagged with the graph it matches in.
type GraphTriple struct {
	Graph   string
	S, P, O PatternNode
}

func (t GraphTriple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// QueryModel is the intermediate representation between an operator chain
// and a SPARQL query (paper §4.1, Figure 2). A model either holds graph
// patterns directly or is a union of sub-models (Unions non-empty).
type QueryModel struct {
	Prefixes *rdf.PrefixMap

	// Projection. Empty SelectVars means SELECT *.
	SelectVars []string
	Distinct   bool

	// Graph matching patterns.
	Triples    []GraphTriple
	Filters    []Condition
	Optionals  []*QueryModel // rendered as OPTIONAL blocks
	SubQueries []*QueryModel // rendered as nested SELECTs
	Unions     []*QueryModel // rendered as { m1 } UNION { m2 } ...

	// Aggregation constructs.
	GroupByCols []string
	Aggs        []AggSpec
	Having      []Condition

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
func newModel(prefixes *rdf.PrefixMap) *QueryModel {
	return &QueryModel{Prefixes: prefixes, Limit: -1}
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

// Vars returns the visible columns in first-use order.
func (m *QueryModel) Vars() []string { return append([]string(nil), m.vars...) }

// HasVar reports whether the column is visible in the model.
func (m *QueryModel) HasVar(name string) bool {
	for _, v := range m.vars {
		if v == name {
			return true
		}
	}
	return false
}

func (m *QueryModel) addVar(name string) {
	if name == "" || m.HasVar(name) {
		return
	}
	m.vars = append(m.vars, name)
}

func (m *QueryModel) addTriple(t GraphTriple) {
	for _, have := range m.Triples {
		if have == t {
			return // merging branched frames must not duplicate patterns
		}
	}
	m.Triples = append(m.Triples, t)
	for _, n := range []PatternNode{t.S, t.P, t.O} {
		if n.IsCol() {
			m.addVar(n.Col)
		}
	}
}

func (m *QueryModel) addFilter(c Condition) {
	for _, have := range m.Filters {
		if have == c {
			return
		}
	}
	m.Filters = append(m.Filters, c)
}

// graphs returns the distinct graph URIs referenced by the model's own
// triples (not descending into subqueries), in first-use order.
func (m *QueryModel) graphs() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range m.Triples {
		if t.Graph != "" && !seen[t.Graph] {
			seen[t.Graph] = true
			out = append(out, t.Graph)
		}
	}
	return out
}

// allGraphs returns every graph URI referenced anywhere in the model tree.
func (m *QueryModel) allGraphs() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(m *QueryModel)
	walk = func(m *QueryModel) {
		if m == nil {
			return
		}
		for _, t := range m.Triples {
			if t.Graph != "" && !seen[t.Graph] {
				seen[t.Graph] = true
				out = append(out, t.Graph)
			}
		}
		for _, o := range m.Optionals {
			walk(o)
		}
		for _, s := range m.SubQueries {
			walk(s)
		}
		for _, u := range m.Unions {
			walk(u)
		}
	}
	walk(m)
	return out
}

// projectedVars returns the columns the model exposes to an enclosing
// query: the explicit projection, or every visible column for SELECT *.
func (m *QueryModel) projectedVars() []string {
	if len(m.SelectVars) > 0 {
		return append([]string(nil), m.SelectVars...)
	}
	return m.Vars()
}

// wrap converts m into the single subquery of a fresh outer model (the
// nesting step shared by all three cases of paper §4.2). The grouped inner
// model projects its grouping and aggregation columns explicitly.
func (m *QueryModel) wrap() *QueryModel {
	if m.IsGrouped() && len(m.SelectVars) == 0 {
		m.SelectVars = append(append([]string(nil), m.GroupByCols...), aggNames(m.Aggs)...)
	}
	outer := newModel(m.Prefixes)
	outer.SubQueries = []*QueryModel{m}
	for _, v := range m.projectedVars() {
		outer.addVar(v)
	}
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
	renameNode := func(n *PatternNode) {
		if n.Col == old {
			n.Col = new
		}
	}
	for i := range m.Triples {
		renameNode(&m.Triples[i].S)
		renameNode(&m.Triples[i].P)
		renameNode(&m.Triples[i].O)
	}
	for i := range m.Filters {
		if m.Filters[i].Col == old {
			m.Filters[i].Col = new
		}
		m.Filters[i].Expr = renameText(m.Filters[i].Expr, old, new)
	}
	for i := range m.Having {
		if m.Having[i].Col == old {
			m.Having[i].Col = new
		}
		m.Having[i].Expr = renameText(m.Having[i].Expr, old, new)
	}
	renameIn := func(ss []string) {
		for i, s := range ss {
			if s == old {
				ss[i] = new
			}
		}
	}
	renameIn(m.SelectVars)
	renameIn(m.GroupByCols)
	renameIn(m.vars)
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
	for _, o := range m.Optionals {
		o.renameVar(old, new)
	}
	for _, s := range m.SubQueries {
		s.renameVar(old, new)
	}
	for _, u := range m.Unions {
		u.renameVar(old, new)
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
	for _, v := range src.vars {
		dst.addVar(v)
	}
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
	} else if dst.Offset > 0 && src.Offset > 0 && src.Offset < dst.Offset {
		dst.Offset = src.Offset
	}
	dst.Order = append(dst.Order, src.Order...)
}

// key renders a canonical string for structural deduplication in tests.
func (m *QueryModel) key() string {
	var sb strings.Builder
	for _, t := range m.Triples {
		sb.WriteString(t.Graph)
		sb.WriteByte(' ')
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, f := range m.Filters {
		sb.WriteString(f.Expr)
		sb.WriteByte('\n')
	}
	return sb.String()
}
