package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"rdfframes/internal/rdf"
)

// Parse parses a SELECT query with an optional PREFIX prologue.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, prefixes: rdf.NewPrefixMap(nil)}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

type parser struct {
	src      string // the text toks were read from, for error lines
	toks     []token
	i        int
	prefixes *rdf.PrefixMap
	// pathVars counts the internal variables minted while desugaring
	// sequence property paths, so every chained segment joins through a
	// fresh ".pN" name (the '.' prefix is unlexable in a user variable,
	// so collisions are impossible).
	pathVars int
	// window is where the LIMIT/OFFSET clauses read last begin: the
	// top-level query's, which end the text (see Query.Window).
	window int
}

// peek returns the next token; past the end of the input it keeps
// returning the final EOF token, however far a rule has read.
func (p *parser) peek() token { return p.toks[min(p.i, len(p.toks)-1)] }
func (p *parser) next() token { t := p.peek(); p.i++; return t }
func (p *parser) backup()     { p.i-- }
func (p *parser) errf(format string, args ...any) error {
	return errAt(p.src, p.peek().pos, format, args...)
}

// keyword reports whether the next token is the given case-insensitive bare
// name and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokName && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	explain := p.keyword("EXPLAIN")
	for p.keyword("PREFIX") {
		t := p.next()
		if t.kind != tokPName || !strings.HasSuffix(t.text, ":") {
			return nil, p.errf("expected prefix declaration, got %q", t.text)
		}
		prefix := strings.TrimSuffix(t.text, ":")
		iri := p.next()
		if iri.kind != tokIRI {
			return nil, p.errf("expected namespace IRI after PREFIX %s:", prefix)
		}
		p.prefixes.Bind(prefix, iri.text)
	}
	q, err := p.parseSelect(false)
	if err != nil {
		return nil, err
	}
	q.Explain = explain
	q.Window = p.window
	return q, nil
}

// parseSelect parses a SELECT query; sub marks a subquery, which SPARQL
// gives no dataset clause.
func (p *parser) parseSelect(sub bool) (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.keyword("DISTINCT") {
		q.Distinct = true
	}
	if p.punct("*") {
		q.Star = true
	} else {
		for {
			t := p.peek()
			if t.kind == tokVar {
				p.next()
				q.Items = append(q.Items, SelectItem{Var: t.text})
				continue
			}
			if t.kind == tokPunct && t.text == "(" {
				p.next()
				expr, err := p.parseExpression()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AS"); err != nil {
					return nil, err
				}
				v := p.next()
				if v.kind != tokVar {
					return nil, p.errf("expected variable after AS")
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.Items = append(q.Items, SelectItem{Var: v.text, Expr: expr})
				continue
			}
			break
		}
		if len(q.Items) == 0 {
			return nil, p.errf("SELECT requires * or at least one projection")
		}
	}
	for p.keyword("FROM") {
		if sub {
			return nil, p.errf("FROM is not allowed in a subquery")
		}
		g, err := p.parseIRIRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, g)
	}
	if p.keyword("WHERE") {
		// WHERE keyword is optional in SPARQL; we accept both forms.
	}
	grp, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = grp
	if err := p.parseModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseModifiers(q *Query) error {
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for p.peek().kind == tokVar {
			q.GroupBy = append(q.GroupBy, p.next().text)
		}
		if len(q.GroupBy) == 0 {
			return p.errf("GROUP BY requires at least one variable")
		}
	}
	for p.keyword("HAVING") {
		cond, err := p.parseConstraint()
		if err != nil {
			return err
		}
		q.Having = append(q.Having, cond)
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			var key OrderKey
			switch {
			case p.keyword("ASC"):
				if err := p.expectPunct("("); err != nil {
					return err
				}
				e, err := p.parseExpression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				key = OrderKey{Expr: e}
			case p.keyword("DESC"):
				if err := p.expectPunct("("); err != nil {
					return err
				}
				e, err := p.parseExpression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				key = OrderKey{Expr: e, Desc: true}
			case p.peek().kind == tokVar:
				key = OrderKey{Expr: ExVar{Name: p.next().text}}
			default:
				if len(q.OrderBy) == 0 {
					return p.errf("ORDER BY requires at least one key")
				}
				return p.parseLimitOffset(q)
			}
			q.OrderBy = append(q.OrderBy, key)
		}
	}
	return p.parseLimitOffset(q)
}

// parseLimitOffset reads SPARQL's LimitOffsetClauses: LIMIT and OFFSET,
// each at most once and in either order, each taking one non-negative
// integer. It records where the clauses begin (or would) in p.window.
func (p *parser) parseLimitOffset(q *Query) error {
	p.window = p.peek().pos
	var seenLimit, seenOffset bool
	for {
		var kw string
		var n *int
		var seen *bool
		switch {
		case p.keyword("LIMIT"):
			kw, n, seen = "LIMIT", &q.Limit, &seenLimit
		case p.keyword("OFFSET"):
			kw, n, seen = "OFFSET", &q.Offset, &seenOffset
		default:
			return nil
		}
		if *seen {
			return p.errf("%s given twice", kw)
		}
		*seen = true
		t := p.next()
		v, err := strconv.Atoi(t.text)
		if t.kind != tokNumber || err != nil {
			return p.errf("expected an integer after %s, got %q", kw, t.text)
		}
		*n = v
	}
}

func (p *parser) parseIRIRef() (string, error) {
	t := p.next()
	switch t.kind {
	case tokIRI:
		return t.text, nil
	case tokPName:
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return "", p.errf("%v", err)
		}
		return iri, nil
	}
	return "", p.errf("expected IRI, got %q", t.text)
}

// parseGroup parses '{' GroupGraphPattern '}'.
func (p *parser) parseGroup() (*Group, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &Group{}
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			p.next()
			return g, nil
		case t.kind == tokEOF:
			return nil, p.errf("unterminated group graph pattern")
		case t.kind == tokName && strings.EqualFold(t.text, "FILTER"):
			p.next()
			cond, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, FilterElem{Cond: cond})
		case t.kind == tokName && strings.EqualFold(t.text, "BIND"):
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			expr, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			v := p.next()
			if v.kind != tokVar {
				return nil, p.errf("expected variable in BIND")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, BindElem{Expr: expr, Var: v.text})
		case t.kind == tokName && strings.EqualFold(t.text, "OPTIONAL"):
			p.next()
			inner, err := p.parseGroupOrSubQuery()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, OptionalElem{Group: inner})
		case t.kind == tokName && strings.EqualFold(t.text, "GRAPH"):
			p.next()
			uri, err := p.parseIRIRef()
			if err != nil {
				return nil, err
			}
			inner, err := p.parseGroupOrSubQuery()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, GraphElem{Graph: uri, Group: inner})
		case t.kind == tokPunct && t.text == "{":
			first, err := p.parseGroupOrSubQuery()
			if err != nil {
				return nil, err
			}
			if p.keywordUnion() {
				branches := []*Group{first}
				for {
					b, err := p.parseGroupOrSubQuery()
					if err != nil {
						return nil, err
					}
					branches = append(branches, b)
					if !p.keywordUnion() {
						break
					}
				}
				g.Elems = append(g.Elems, UnionElem{Branches: branches})
			} else {
				g.Elems = append(g.Elems, GroupElem{Group: first})
			}
		case t.kind == tokPunct && t.text == ".":
			p.next() // stray separator
		default:
			if err := p.parseTriplesBlock(g); err != nil {
				return nil, err
			}
		}
	}
}

func (p *parser) keywordUnion() bool { return p.keyword("UNION") }

// parseGroupOrSubQuery parses a braced group; if the group consists of a
// single SELECT it becomes a subquery wrapped in a one-element group.
func (p *parser) parseGroupOrSubQuery() (*Group, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokName && strings.EqualFold(t.text, "SELECT") {
		q, err := p.parseSelect(true)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return &Group{Elems: []Element{SubQueryElem{Query: q}}}, nil
	}
	p.backup() // rewind the '{' and reuse parseGroup
	return p.parseGroup()
}

// parseTriplesBlock parses subject predicate-object lists with ';' and ','.
func (p *parser) parseTriplesBlock(g *Group) error {
	subj, err := p.parseNode()
	if err != nil {
		return err
	}
	for {
		pred, steps, err := p.parseVerbPath()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseNode()
			if err != nil {
				return err
			}
			if steps == nil {
				g.Elems = append(g.Elems, BGPElem{Pattern: TriplePattern{S: subj, P: pred, O: obj}})
			} else {
				p.emitPath(g, subj, steps, obj)
			}
			if !p.punct(",") {
				break
			}
		}
		if !p.punct(";") {
			break
		}
		// Allow a dangling ';' before '.' or '}'.
		if t := p.peek(); t.kind == tokPunct && (t.text == "." || t.text == "}") {
			break
		}
	}
	p.punct(".") // optional terminator before '}'
	return nil
}

func (p *parser) parseVerb() (Node, error) {
	if t := p.peek(); t.kind == tokName && t.text == "a" {
		p.next()
		return TermNode(rdf.NewIRI(rdf.RDFType)), nil
	}
	return p.parseNode()
}

// pathStep is one parsed step of a property path: a constant predicate
// with an optional transitive closure modifier. min is the minimum path
// length (1 for '+', 0 for '*'); min < 0 marks a plain single-hop step.
type pathStep struct {
	pred rdf.Term
	min  int
}

// parseVerbPath parses the predicate position of a triple: a variable, a
// plain constant predicate (steps == nil in both cases), or a property
// path — '/'-joined constant steps, each optionally modified by '+' or
// '*'. Variables cannot take path modifiers or participate in sequences.
func (p *parser) parseVerbPath() (Node, []pathStep, error) {
	verb, err := p.parseVerb()
	if err != nil {
		return Node{}, nil, err
	}
	if verb.IsVar {
		if t := p.peek(); t.kind == tokPunct && (t.text == "/" || t.text == "+" || t.text == "*") {
			return Node{}, nil, p.errf("property paths require constant predicates, got variable ?%s", verb.Var)
		}
		return verb, nil, nil
	}
	mod := p.parsePathMod()
	if mod < 0 {
		if t := p.peek(); t.kind != tokPunct || t.text != "/" {
			return verb, nil, nil // plain predicate: no path machinery
		}
	}
	steps := []pathStep{{pred: verb.Term, min: mod}}
	for p.punct("/") {
		step, err := p.parseVerb()
		if err != nil {
			return Node{}, nil, err
		}
		if step.IsVar {
			return Node{}, nil, p.errf("property paths require constant predicates, got variable ?%s", step.Var)
		}
		steps = append(steps, pathStep{pred: step.Term, min: p.parsePathMod()})
	}
	return Node{}, steps, nil
}

// parsePathMod consumes a '+' or '*' path modifier if present, returning
// the minimum path length it implies (-1 when absent).
func (p *parser) parsePathMod() int {
	switch {
	case p.punct("+"):
		return 1
	case p.punct("*"):
		return 0
	}
	return -1
}

// emitPath desugars one (subject, path, object) triple into group
// elements: plain steps become ordinary triple patterns, transitive steps
// become PathElems, and consecutive steps chain through fresh internal
// ".pN" variables invisible to SELECT *.
func (p *parser) emitPath(g *Group, subj Node, steps []pathStep, obj Node) {
	cur := subj
	for i, st := range steps {
		end := obj
		if i < len(steps)-1 {
			end = Variable(fmt.Sprintf(".p%d", p.pathVars))
			p.pathVars++
		}
		if st.min < 0 {
			g.Elems = append(g.Elems, BGPElem{Pattern: TriplePattern{S: cur, P: TermNode(st.pred), O: end}})
		} else {
			g.Elems = append(g.Elems, PathElem{S: cur, Pred: st.pred, O: end, Min: st.min})
		}
		cur = end
	}
}

// parseNode parses a term or variable usable in a triple pattern.
func (p *parser) parseNode() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return Variable(t.text), nil
	case tokIRI:
		return TermNode(rdf.NewIRI(t.text)), nil
	case tokPName:
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return Node{}, p.errf("%v", err)
		}
		return TermNode(rdf.NewIRI(iri)), nil
	case tokString:
		return TermNode(p.parseLiteralTail(t.text)), nil
	case tokNumber:
		return TermNode(numberTerm(t.text)), nil
	case tokName:
		switch strings.ToLower(t.text) {
		case "true":
			return TermNode(rdf.NewBoolean(true)), nil
		case "false":
			return TermNode(rdf.NewBoolean(false)), nil
		}
	}
	return Node{}, p.errf("expected term or variable, got %q", t.text)
}

// parseLiteralTail handles optional @lang or ^^datatype after a string.
func (p *parser) parseLiteralTail(lex string) rdf.Term {
	if t := p.peek(); t.kind == tokLang {
		p.next()
		return rdf.NewLangLiteral(lex, t.text)
	}
	if p.punct("^^") {
		dt, err := p.parseIRIRef()
		if err == nil {
			return rdf.NewTypedLiteral(lex, dt)
		}
		p.backup()
	}
	return rdf.NewLiteral(lex)
}

func numberTerm(text string) rdf.Term {
	if strings.Contains(text, ".") {
		return rdf.NewTypedLiteral(text, rdf.XSDDecimal)
	}
	return rdf.NewTypedLiteral(text, rdf.XSDInteger)
}

// parseConstraint parses a FILTER/HAVING constraint: a parenthesized
// expression or a bare function call like regex(...).
func (p *parser) parseConstraint() (Expression, error) {
	if t := p.peek(); t.kind == tokPunct && t.text == "(" {
		p.next()
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePrimary()
}

// Expression precedence: || < && < relational/IN < additive < multiplicative
// < unary < primary.

func (p *parser) parseExpression() (Expression, error) { return p.parseOr() }

func (p *parser) parseOr() (Expression, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.punct("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = ExBinary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expression, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.punct("&&") {
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = ExBinary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelational() (Expression, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.punct(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return ExBinary{Op: op, L: l, R: r}, nil
		}
	}
	neg := false
	if p.keyword("NOT") {
		neg = true
	}
	if p.keyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []Expression
		if !p.punct(")") {
			for {
				e, err := p.parseExpression()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.punct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		return ExIn{E: l, List: list, Neg: neg}, nil
	}
	if neg {
		return nil, p.errf("expected IN after NOT")
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expression, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = ExBinary{Op: "+", L: l, R: r}
		case p.punct("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = ExBinary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expression, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = ExBinary{Op: "*", L: l, R: r}
		case p.punct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = ExBinary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expression, error) {
	if p.punct("!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExUnary{Op: "!", E: e}, nil
	}
	if p.punct("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExUnary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true, "sample": true,
}

var builtinNames = map[string]bool{
	"regex": true, "str": true, "lang": true, "datatype": true, "bound": true,
	"isiri": true, "isuri": true, "isliteral": true, "isblank": true,
	"isnumeric": true, "strstarts": true, "strends": true, "contains": true,
	"strlen": true, "lcase": true, "ucase": true, "abs": true, "year": true,
}

func (p *parser) parsePrimary() (Expression, error) {
	t := p.next()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			e, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokVar:
		return ExVar{Name: t.text}, nil
	case tokString:
		return ExTerm{Term: p.parseLiteralTail(t.text)}, nil
	case tokNumber:
		return ExTerm{Term: numberTerm(t.text)}, nil
	case tokIRI:
		if p.punct("(") {
			return p.parseCallArgs(t.text, true)
		}
		return ExTerm{Term: rdf.NewIRI(t.text)}, nil
	case tokPName:
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if p.punct("(") {
			return p.parseCallArgs(iri, true)
		}
		return ExTerm{Term: rdf.NewIRI(iri)}, nil
	case tokName:
		lower := strings.ToLower(t.text)
		switch lower {
		case "true":
			return ExTerm{Term: rdf.NewBoolean(true)}, nil
		case "false":
			return ExTerm{Term: rdf.NewBoolean(false)}, nil
		}
		if aggregateNames[lower] {
			return p.parseAggregate(lower)
		}
		if builtinNames[lower] {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			return p.parseCallArgs(lower, false)
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// parseCallArgs parses a call's argument list; iri marks a call of a function
// IRI, which never names a builtin.
func (p *parser) parseCallArgs(name string, iri bool) (Expression, error) {
	var args []Expression
	if !p.punct(")") {
		for {
			e, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return ExCall{Name: name, Args: args, IRI: iri}, nil
}

func (p *parser) parseAggregate(fn string) (Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := ExAgg{Fn: fn}
	if p.keyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.punct("*") {
		if fn != "count" {
			return nil, p.errf("only COUNT accepts *")
		}
		agg.Star = true
	} else {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return agg, nil
}
