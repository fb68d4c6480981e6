package rdfframes

import (
	"sort"
	"strconv"
	"strings"

	"rdfframes/internal/core"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

// parseConds renders the paper-style condition map into SPARQL boolean
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
			expr, err := renderCondition(g, col, cond)
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

func renderCondition(g *KnowledgeGraph, col, cond string) (string, error) {
	c := strings.TrimSpace(cond)
	if c == "" {
		return "", &FrameError{Op: "filter", Msg: "empty condition for column " + col}
	}
	// Type-check predicates.
	switch strings.ToLower(c) {
	case "isuri", "isiri":
		return "isIRI(?" + col + ")", nil
	case "isliteral":
		return "isLiteral(?" + col + ")", nil
	case "isblank":
		return "isBlank(?" + col + ")", nil
	case "isnumeric":
		return "isNumeric(?" + col + ")", nil
	}
	// Membership: In(a, b, ...).
	if len(c) > 3 && strings.EqualFold(c[:3], "in(") && strings.HasSuffix(c, ")") {
		items := splitTopLevel(c[3 : len(c)-1])
		rendered := make([]string, 0, len(items))
		for _, it := range items {
			v, err := renderValue(g, it)
			if err != nil {
				return "", err
			}
			rendered = append(rendered, v)
		}
		return "?" + col + " IN (" + strings.Join(rendered, ", ") + ")", nil
	}
	// Comparison operators.
	for _, op := range compareOps {
		if strings.HasPrefix(c, op) {
			v, err := renderValue(g, c[len(op):])
			if err != nil {
				return "", err
			}
			return "?" + col + " " + op + " " + v, nil
		}
	}
	// Raw SPARQL expression pass-through (e.g. regex(str(?col), "USA")).
	if strings.Contains(c, "(") && strings.Contains(c, "?") {
		return c, nil
	}
	return "", &FrameError{Op: "filter", Msg: "cannot parse condition " + strconv.Quote(cond) + " for column " + col}
}

// renderValue renders a condition operand: a number, quoted string, year
// (bare 4-digit numbers compare numerically), prefixed name, or IRI. An
// operand that cannot be written as one SPARQL term is an error here rather
// than a query that fails to parse.
func renderValue(g *KnowledgeGraph, raw string) (string, error) {
	v := strings.TrimSpace(raw)
	if v == "" {
		return "", &FrameError{Op: "filter", Msg: "missing comparison value"}
	}
	if strings.HasPrefix(v, `"`) {
		// A quoted literal in SPARQL syntax: it must be one term, and is
		// written out again as the term it reads as.
		e, err := sparql.ParseExpression(v, g.prefixes)
		lit, term := e.(sparql.ExTerm)
		if err != nil || !term {
			return "", &FrameError{Op: "filter", Msg: "invalid literal " + v}
		}
		return lit.Term.String(), nil
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		if !isDecimal(v) {
			return "", &FrameError{Op: "filter", Msg: "unsupported numeric literal " + v}
		}
		return v, nil // bare numeric literal
	}
	if strings.Contains(v, ":") || strings.HasPrefix(v, "<") {
		iri, err := g.prefixes.Expand(v)
		if err != nil {
			return "", &FrameError{Op: "filter", Msg: err.Error()}
		}
		if strings.ContainsFunc(iri, func(r rune) bool { return r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r) }) {
			return "", &FrameError{Op: "filter", Msg: "IRI " + strconv.Quote(iri) + " holds a character an IRI cannot"}
		}
		return rdf.NewIRI(iri).String(), nil
	}
	// Bare word: treat as a plain string literal.
	return rdf.NewLiteral(v).String(), nil
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
