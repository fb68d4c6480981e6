// Package sparql implements the fragment of SPARQL 1.1 that RDFFrames
// generates and the paper's evaluation uses: SELECT queries with basic graph
// patterns, FILTER, OPTIONAL, UNION, GRAPH, nested subqueries, BIND,
// property paths (p1/p2 sequences and p+/p* closures), grouping/aggregation
// with HAVING, solution modifiers, and the SPARQL JSON results format. It
// provides a lexer, a recursive-descent parser, and a bag-semantics
// evaluator over the triple store with cost-based join ordering.
//
// The evaluator runs in dictionary-id space: solutions are columnar batches
// of store ids, joins and DISTINCT/GROUP BY key on id tuples, and terms are
// decoded only for expression evaluation and the final projection. See
// PERFORMANCE.md at the repository root for the execution model and
// docs/query-reference.md for the supported language.
//
// Beyond query evaluation the Engine exposes SPARQL UPDATE (Update),
// streaming result export (Export, handing a RowWriter the result's term
// table and its cells a morsel of rows at a time), and store-side
// topology-feature extraction (Features).
package sparql

import (
	"rdfframes/internal/rdf"
)

// Node is a triple-pattern slot: either a variable or a concrete RDF term.
type Node struct {
	IsVar bool
	Var   string // variable name without the leading '?'
	Term  rdf.Term
}

// Variable returns a variable node.
func Variable(name string) Node { return Node{IsVar: true, Var: name} }

// TermNode returns a constant term node.
func TermNode(t rdf.Term) Node { return Node{Term: t} }

// TriplePattern is one subject-predicate-object pattern.
type TriplePattern struct {
	S, P, O Node
}

// String renders the pattern in SPARQL syntax (without trailing dot).
func (tp TriplePattern) String() string {
	var r renderer
	r.triple(tp.S, tp.P, "", tp.O)
	return r.String()
}

// AppendVars appends the variable names used by the pattern to dst, in
// S,P,O order. A caller that only iterates them passes a [3]string buffer
// and allocates nothing.
func (tp TriplePattern) AppendVars(dst []string) []string {
	for _, n := range [...]Node{tp.S, tp.P, tp.O} {
		if n.IsVar {
			dst = append(dst, n.Var)
		}
	}
	return dst
}

// Element is one component of a group graph pattern.
type Element interface{ isElement() }

// BGPElem is a single triple pattern within a group.
type BGPElem struct {
	Pattern TriplePattern
}

// FilterElem is a FILTER constraint.
type FilterElem struct {
	Cond Expression
}

// BindElem is a BIND(expr AS ?var) assignment.
type BindElem struct {
	Expr Expression
	Var  string
}

// OptionalElem is an OPTIONAL { ... } block.
type OptionalElem struct {
	Group *Group
}

// UnionElem is a chain of groups combined with UNION.
type UnionElem struct {
	Branches []*Group
}

// GraphElem is a GRAPH <uri> { ... } block scoping its group to one graph.
type GraphElem struct {
	Graph string
	Group *Group
}

// GroupElem is a braced nested group.
type GroupElem struct {
	Group *Group
}

// SubQueryElem is a nested SELECT query.
type SubQueryElem struct {
	Query *Query
}

// PathElem is a transitive property-path step: S (p)+ O or S (p)* O.
// Sequence paths (p1/p2) never reach the AST — the parser desugars them
// into chained triple patterns through internal variables — so PathElem
// only ever carries a single constant predicate with a + or * modifier.
// Min is the minimum path length: 1 for +, 0 for * (zero-length paths
// connect every graph node, and every bound endpoint, to itself).
type PathElem struct {
	S    Node
	Pred rdf.Term
	O    Node
	Min  int
}

func (BGPElem) isElement()      {}
func (FilterElem) isElement()   {}
func (BindElem) isElement()     {}
func (OptionalElem) isElement() {}
func (UnionElem) isElement()    {}
func (GraphElem) isElement()    {}
func (GroupElem) isElement()    {}
func (SubQueryElem) isElement() {}
func (PathElem) isElement()     {}

// String renders the path in SPARQL syntax (without trailing dot).
func (pe PathElem) String() string {
	var r renderer
	r.triple(pe.S, TermNode(pe.Pred), pe.mod(), pe.O)
	return r.String()
}

// mod is the path's modifier: + for one or more steps, * for any number.
func (pe PathElem) mod() string {
	if pe.Min == 0 {
		return "*"
	}
	return "+"
}

// Group is a group graph pattern: an ordered list of elements.
type Group struct {
	Elems []Element
}

// SelectItem is one projection: a plain variable, or (expr AS ?var).
type SelectItem struct {
	Var  string
	Expr Expression // nil for a plain variable
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expression
	Desc bool
}

// Query is a parsed SELECT query (or subquery).
type Query struct {
	// Explain marks an "EXPLAIN SELECT ..." query: the engine answers with
	// its optimized plan (estimated vs actual cardinalities) instead of the
	// solutions. Only valid on top-level queries.
	Explain  bool
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     []string // graph IRIs from FROM clauses
	Where    *Group
	GroupBy  []string
	Having   []Expression
	OrderBy  []OrderKey
	Limit    int // -1 if absent
	Offset   int // 0 if absent
	// Window is the byte offset in the parsed text where a top-level
	// query's LIMIT/OFFSET clauses begin, or would begin if it has none:
	// the text before it parses to the same query with neither. It is 0 on
	// a subquery, so equal subqueries compare equal wherever they stand.
	Window int
}

// HasAggregates reports whether the query computes aggregates (explicitly
// grouped, or with aggregate expressions in the projection or HAVING).
func (q *Query) HasAggregates() bool {
	if len(q.GroupBy) > 0 || len(q.Having) > 0 {
		return true
	}
	for _, it := range q.Items {
		if it.Expr != nil && containsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// internalVar reports whether v is a variable the parser minted for
// sequence-path desugaring. Its '.' prefix no user variable can have; it
// joins patterns together but is not part of a solution: it never
// surfaces through SELECT * or counts in COUNT(DISTINCT *).
func internalVar(v string) bool { return len(v) > 0 && v[0] == '.' }

// scopeVars returns the variables visible in the group in syntactic order,
// which defines the column order of SELECT *.
func (g *Group) scopeVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if !internalVar(v) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var buf [3]string
	var walk func(g *Group)
	walk = func(g *Group) {
		for _, el := range g.Elems {
			switch e := el.(type) {
			case BGPElem:
				for _, v := range e.Pattern.AppendVars(buf[:0]) {
					add(v)
				}
			case PathElem:
				if e.S.IsVar {
					add(e.S.Var)
				}
				if e.O.IsVar {
					add(e.O.Var)
				}
			case BindElem:
				add(e.Var)
			case OptionalElem:
				walk(e.Group)
			case UnionElem:
				for _, b := range e.Branches {
					walk(b)
				}
			case GraphElem:
				walk(e.Group)
			case GroupElem:
				walk(e.Group)
			case SubQueryElem:
				for _, v := range e.Query.projectedVars() {
					add(v)
				}
			}
		}
	}
	walk(g)
	return out
}

// projectedVars returns the variables a query exposes to its parent scope.
func (q *Query) projectedVars() []string {
	if q.Star {
		if q.Where == nil {
			return nil
		}
		return q.Where.scopeVars()
	}
	out := make([]string, 0, len(q.Items))
	for _, it := range q.Items {
		out = append(out, it.Var)
	}
	return out
}
