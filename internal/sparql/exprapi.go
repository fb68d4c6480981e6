package sparql

import (
	"fmt"

	"rdfframes/internal/rdf"
)

// ParseExpression parses a standalone SPARQL boolean/value expression, as
// used in FILTER constraints, resolving prefixed names against prefixes
// (nil allows only full IRIs). Frames parse their raw filter expressions
// with it when they are built, so a condition is one expression tree for
// the query, the renderer and the dataframe-side baselines alike.
func ParseExpression(src string, prefixes *rdf.PrefixMap) (Expression, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if prefixes == nil {
		prefixes = rdf.NewPrefixMap(nil)
	}
	p := &parser{src: src, toks: toks, prefixes: prefixes}
	e, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sparql: trailing input after expression: %q", p.peek().text)
	}
	return e, nil
}

// EvalExpression evaluates an expression against a row of bindings.
func EvalExpression(e Expression, row map[string]rdf.Term) (rdf.Term, error) {
	v, err := evalExpr(e, &evalCtx{row: Binding(row), cache: &regexCache{}})
	return v.term(), err
}

// EvalCondition evaluates a boolean condition against a row; expression
// errors yield false, matching FILTER semantics.
func EvalCondition(e Expression, row map[string]rdf.Term) bool {
	return evalBool(e, &evalCtx{row: Binding(row), cache: &regexCache{}})
}
