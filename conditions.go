package rdfframes

import (
	"sort"
	"strconv"
	"strings"

	"rdfframes/internal/core"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

// parseConds builds the paper-style condition map into SPARQL boolean
// expressions attached to their columns.
func parseConds(g *KnowledgeGraph, conds Conds) ([]core.Condition, error) {
	cols := make([]string, 0, len(conds))
	for col := range conds {
		cols = append(cols, col)
	}
	sort.Strings(cols) // deterministic generated queries
	var out []core.Condition
	for _, col := range cols {
		if !core.ValidColumn(col) {
			return nil, &FrameError{Op: "filter", Msg: "invalid column name " + col}
		}
		for _, cond := range conds[col] {
			expr, err := buildCondition(g, col, cond)
			if err != nil {
				return nil, err
			}
			out = append(out, core.Condition{Col: col, Expr: expr})
		}
	}
	return out, nil
}

// comparison operators, longest first so ">=" wins over ">".
var compareOps = []string{">=", "<=", "!=", ">", "<", "="}

// typeTests maps the type-check conditions to the builtin each calls.
var typeTests = map[string]string{
	"isuri": "isiri", "isiri": "isiri", "isliteral": "isliteral", "isblank": "isblank", "isnumeric": "isnumeric",
}

func buildCondition(g *KnowledgeGraph, col, cond string) (sparql.Expression, error) {
	c := strings.TrimSpace(cond)
	if c == "" {
		return nil, &FrameError{Op: "filter", Msg: "empty condition for column " + col}
	}
	v := sparql.ExVar{Name: col}
	if fn, ok := typeTests[strings.ToLower(c)]; ok {
		return sparql.ExCall{Name: fn, Args: []sparql.Expression{v}}, nil
	}
	// Membership: In(a, b, ...).
	if len(c) > 3 && strings.EqualFold(c[:3], "in(") && strings.HasSuffix(c, ")") {
		in := sparql.ExIn{E: v}
		for _, it := range splitTopLevel(c[3 : len(c)-1]) {
			t, err := buildValue(g, it)
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, sparql.ExTerm{Term: t})
		}
		return in, nil
	}
	// Comparison operators.
	for _, op := range compareOps {
		if strings.HasPrefix(c, op) {
			t, err := buildValue(g, c[len(op):])
			if err != nil {
				return nil, err
			}
			return sparql.ExBinary{Op: op, L: v, R: sparql.ExTerm{Term: t}}, nil
		}
	}
	// Raw SPARQL expression pass-through (e.g. regex(str(?col), "USA")).
	if strings.Contains(c, "(") && strings.Contains(c, "?") {
		return parseRaw(g, c)
	}
	return nil, &FrameError{Op: "filter", Msg: "cannot parse condition " + strconv.Quote(cond) + " for column " + col}
}

// parseRaw parses a raw SPARQL expression under the graph's prefixes.
func parseRaw(g *KnowledgeGraph, expr string) (sparql.Expression, error) {
	e, err := sparql.ParseExpression(expr, g.prefixes)
	if err != nil {
		return nil, &FrameError{Op: "filter", Msg: "invalid expression " + strconv.Quote(expr) + ": " + err.Error()}
	}
	return e, nil
}

// buildValue reads a condition operand as a term: a number, quoted string,
// year (bare 4-digit numbers compare numerically), prefixed name, or IRI.
// An operand that cannot be written as one SPARQL term is an error here
// rather than a query that fails to parse.
func buildValue(g *KnowledgeGraph, raw string) (rdf.Term, error) {
	v := strings.TrimSpace(raw)
	if v == "" {
		return rdf.Term{}, &FrameError{Op: "filter", Msg: "missing comparison value"}
	}
	if strings.HasPrefix(v, `"`) {
		// A quoted literal in SPARQL syntax: it must be one term.
		e, err := sparql.ParseExpression(v, g.prefixes)
		lit, term := e.(sparql.ExTerm)
		if err != nil || !term {
			return rdf.Term{}, &FrameError{Op: "filter", Msg: "invalid literal " + v}
		}
		return lit.Term, nil
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		if !isDecimal(v) {
			return rdf.Term{}, &FrameError{Op: "filter", Msg: "unsupported numeric literal " + v}
		}
		dt := rdf.XSDInteger
		if strings.Contains(v, ".") {
			dt = rdf.XSDDecimal
		}
		return rdf.NewTypedLiteral(v, dt), nil
	}
	if strings.Contains(v, ":") || strings.HasPrefix(v, "<") {
		iri, err := g.expandIRI("filter", v)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	}
	// Bare word: treat as a plain string literal.
	return rdf.NewLiteral(v), nil
}

// expandIRI expands a prefixed name or an <IRI> written in an API string
// to an IRI that SPARQL can write: one holding a space, a control
// character or one of <>"{}|^`\ is refused with a FrameError of op.
func (g *KnowledgeGraph) expandIRI(op, s string) (string, error) {
	iri, err := g.prefixes.Expand(s)
	if err != nil {
		return "", &FrameError{Op: op, Msg: err.Error()}
	}
	if strings.ContainsFunc(iri, func(r rune) bool { return r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r) }) {
		return "", &FrameError{Op: op, Msg: "IRI " + strconv.Quote(iri) + " holds a character an IRI cannot"}
	}
	return iri, nil
}

// isDecimal reports whether v is a number as SPARQL text writes it: an
// optional minus, digits, and optionally a point and more digits.
func isDecimal(v string) bool {
	whole, frac, point := strings.Cut(strings.TrimPrefix(v, "-"), ".")
	digits := func(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }
	return digits(whole) && (!point || digits(frac))
}

// splitTopLevel splits a comma-separated list, respecting quoted strings and
// the backslash escapes inside them.
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inStr {
				i++
			}
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if !inStr && depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}
