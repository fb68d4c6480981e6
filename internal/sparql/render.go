package sparql

import (
	"strconv"
	"strings"

	"rdfframes/internal/rdf"
)

// Render writes a query as SPARQL text that Parse reads back to the same
// query (apart from Window, which records where the text's LIMIT/OFFSET
// begin). It is the one writer of query text: frames compile to a *Query
// and render it here. Every term is written in full, so the text carries
// no PREFIX prologue. The layout is one pattern or clause per line, two
// spaces per level of nesting.
//
// Only the ASTs the parser builds are guaranteed to round-trip: a variable
// the parser mints for a sequence path (".pN") has no spelling, and a
// subquery is read back as the only element of a group, as `{ SELECT … }`
// is parsed.
func Render(q *Query) string {
	var r renderer
	r.Grow(1024)
	if q.Explain {
		r.WriteString("EXPLAIN ")
	}
	r.query(q, 0)
	return r.String()
}

// RenderExpression writes an expression as SPARQL text that ParseExpression
// reads back to the same tree. A binary operand that is itself a binary
// operator or an IN test is parenthesized, so the text never depends on
// operator precedence.
func RenderExpression(e Expression) string {
	var r renderer
	r.expr(e)
	return r.String()
}

type renderer struct{ strings.Builder }

// line starts a line at the given nesting depth with s.
func (r *renderer) line(depth int, s string) {
	for ; depth > 0; depth-- {
		r.WriteString("  ")
	}
	r.WriteString(s)
}

func (r *renderer) query(q *Query, depth int) {
	r.line(depth, "SELECT ")
	if q.Distinct {
		r.WriteString("DISTINCT ")
	}
	if q.Star {
		r.WriteByte('*')
	}
	for i, it := range q.Items {
		if i > 0 {
			r.WriteByte(' ')
		}
		if it.Expr == nil {
			r.variable(it.Var)
			continue
		}
		r.WriteByte('(')
		r.expr(it.Expr)
		r.WriteString(" AS ")
		r.variable(it.Var)
		r.WriteByte(')')
	}
	for _, g := range q.From {
		r.WriteByte('\n')
		r.line(depth, "FROM ")
		r.iri(g)
	}
	r.WriteByte('\n')
	r.line(depth, "WHERE {\n")
	r.elems(q.Where.Elems, depth+1)
	r.line(depth, "}\n")
	if len(q.GroupBy) > 0 {
		r.line(depth, "GROUP BY")
		for _, v := range q.GroupBy {
			r.WriteByte(' ')
			r.variable(v)
		}
		r.WriteByte('\n')
	}
	for _, h := range q.Having {
		r.line(depth, "HAVING ( ")
		r.expr(h)
		r.WriteString(" )\n")
	}
	if len(q.OrderBy) > 0 {
		r.line(depth, "ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				r.WriteString(" DESC(")
			} else {
				r.WriteString(" ASC(")
			}
			r.expr(k.Expr)
			r.WriteByte(')')
		}
		r.WriteByte('\n')
	}
	if q.Limit >= 0 {
		r.line(depth, "LIMIT "+strconv.Itoa(q.Limit)+"\n")
	}
	if q.Offset > 0 {
		r.line(depth, "OFFSET "+strconv.Itoa(q.Offset)+"\n")
	}
}

// group writes a braced group after text already on its first line. A
// group that is one subquery is written as the braces around that query,
// which is how the parser reads `{ SELECT … }`.
func (r *renderer) group(g *Group, depth int) {
	r.WriteString("{\n")
	if len(g.Elems) == 1 {
		if sq, ok := g.Elems[0].(SubQueryElem); ok {
			r.query(sq.Query, depth+1)
			r.line(depth, "}\n")
			return
		}
	}
	r.elems(g.Elems, depth+1)
	r.line(depth, "}\n")
}

func (r *renderer) elems(elems []Element, depth int) {
	for _, el := range elems {
		r.line(depth, "")
		switch e := el.(type) {
		case BGPElem:
			r.triple(e.Pattern.S, e.Pattern.P, "", e.Pattern.O)
			r.WriteString(" .\n")
		case PathElem:
			r.triple(e.S, TermNode(e.Pred), e.mod(), e.O)
			r.WriteString(" .\n")
		case FilterElem:
			r.WriteString("FILTER ( ")
			r.expr(e.Cond)
			r.WriteString(" )\n")
		case BindElem:
			r.WriteString("BIND ( ")
			r.expr(e.Expr)
			r.WriteString(" AS ")
			r.variable(e.Var)
			r.WriteString(" )\n")
		case OptionalElem:
			r.WriteString("OPTIONAL ")
			r.group(e.Group, depth)
		case GraphElem:
			r.WriteString("GRAPH ")
			r.iri(e.Graph)
			r.WriteByte(' ')
			r.group(e.Group, depth)
		case GroupElem:
			r.group(e.Group, depth)
		case UnionElem:
			for i, br := range e.Branches {
				if i > 0 {
					r.line(depth, "UNION\n")
					r.line(depth, "")
				}
				r.group(br, depth)
			}
		case SubQueryElem:
			r.group(&Group{Elems: []Element{e}}, depth)
		}
	}
}

// triple writes a pattern without its terminating dot; mod is a property
// path's + or *, or empty.
func (r *renderer) triple(s, p Node, mod string, o Node) {
	r.node(s)
	r.WriteByte(' ')
	r.node(p)
	r.WriteString(mod)
	r.WriteByte(' ')
	r.node(o)
}

func (r *renderer) variable(name string) {
	r.WriteByte('?')
	r.WriteString(name)
}

func (r *renderer) iri(iri string) {
	r.WriteByte('<')
	r.WriteString(iri)
	r.WriteByte('>')
}

func (r *renderer) term(t rdf.Term) {
	if t.Kind == rdf.IRIKind {
		r.iri(t.Value)
	} else {
		r.WriteString(t.String())
	}
}

func (r *renderer) node(n Node) {
	if n.IsVar {
		r.variable(n.Var)
	} else {
		r.term(n.Term)
	}
}

func (r *renderer) expr(e Expression) {
	switch x := e.(type) {
	case ExVar:
		r.variable(x.Name)
	case ExTerm:
		r.term(x.Term)
	case ExBinary:
		r.operand(x.L)
		r.WriteByte(' ')
		r.WriteString(x.Op)
		r.WriteByte(' ')
		r.operand(x.R)
	case ExUnary:
		r.WriteString(x.Op)
		r.WriteByte('(')
		r.expr(x.E)
		r.WriteByte(')')
	case ExCall:
		if x.IRI {
			r.iri(x.Name)
		} else {
			r.WriteString(x.Name)
		}
		r.list(x.Args)
	case ExIn:
		r.operand(x.E)
		if x.Neg {
			r.WriteString(" NOT")
		}
		r.WriteString(" IN ")
		r.list(x.List)
	case ExAgg:
		r.WriteString(strings.ToUpper(x.Fn))
		r.WriteByte('(')
		if x.Distinct {
			r.WriteString("DISTINCT ")
		}
		if x.Star {
			r.WriteByte('*')
		} else {
			r.expr(x.Arg)
		}
		r.WriteByte(')')
	}
}

// operand writes an operand of a binary operator or an IN test,
// parenthesized when it is one of those itself.
func (r *renderer) operand(e Expression) {
	switch e.(type) {
	case ExBinary, ExIn:
		r.WriteByte('(')
		r.expr(e)
		r.WriteByte(')')
	default:
		r.expr(e)
	}
}

// list writes a parenthesized argument list.
func (r *renderer) list(es []Expression) {
	r.WriteByte('(')
	for i, e := range es {
		if i > 0 {
			r.WriteString(", ")
		}
		r.expr(e)
	}
	r.WriteByte(')')
}

// MapVars returns a copy of e in which every variable that f answers for
// is replaced by the answer; f returns nil to keep a variable.
func MapVars(e Expression, f func(name string) Expression) Expression {
	switch x := e.(type) {
	case ExVar:
		if repl := f(x.Name); repl != nil {
			return repl
		}
	case ExBinary:
		return ExBinary{Op: x.Op, L: MapVars(x.L, f), R: MapVars(x.R, f)}
	case ExUnary:
		return ExUnary{Op: x.Op, E: MapVars(x.E, f)}
	case ExCall:
		return ExCall{Name: x.Name, Args: mapAll(x.Args, f), IRI: x.IRI}
	case ExIn:
		return ExIn{E: MapVars(x.E, f), List: mapAll(x.List, f), Neg: x.Neg}
	case ExAgg:
		if x.Arg != nil {
			x.Arg = MapVars(x.Arg, f)
		}
		return x
	}
	return e
}

func mapAll(es []Expression, f func(string) Expression) []Expression {
	if es == nil {
		return nil
	}
	out := make([]Expression, len(es))
	for i, e := range es {
		out[i] = MapVars(e, f)
	}
	return out
}
