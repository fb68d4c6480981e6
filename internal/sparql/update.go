package sparql

import (
	"fmt"
	"strings"

	"rdfframes/internal/rdf"
)

// SPARQL UPDATE grammar: the write-side fragment the engine supports —
// INSERT DATA, DELETE DATA (ground quads, optionally wrapped in
// GRAPH <uri> { ... }), and DELETE WHERE (a pattern whose matches are
// deleted). A request is one or more operations separated by ';', sharing
// one PREFIX prologue, and is applied as a single atomic batch (see
// update_eval.go).

// UpdateKind discriminates update operations.
type UpdateKind int

const (
	// InsertData adds ground triples.
	InsertData UpdateKind = iota
	// DeleteData removes ground triples.
	DeleteData
	// DeleteWhere removes every instantiation of a pattern's matches.
	DeleteWhere
)

// String names the operation as it is spelled in SPARQL.
func (k UpdateKind) String() string {
	switch k {
	case InsertData:
		return "INSERT DATA"
	case DeleteData:
		return "DELETE DATA"
	case DeleteWhere:
		return "DELETE WHERE"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// UpdateQuad is one ground triple with its target graph ("" means the
// engine's default graph; see Engine.Update for the resolution rule).
type UpdateQuad struct {
	Graph  string
	Triple rdf.Triple
}

// PatternQuad is one triple pattern with its graph scope ("" means the
// default graph set).
type PatternQuad struct {
	Graph   string
	Pattern TriplePattern
}

// UpdateOperation is one parsed operation of an update request.
type UpdateOperation struct {
	Kind UpdateKind
	// Quads holds the ground data of INSERT DATA / DELETE DATA.
	Quads []UpdateQuad
	// Patterns holds the DELETE WHERE template: the same triple patterns
	// that form Where, each tagged with its GRAPH scope.
	Patterns []PatternQuad
	// Where is the DELETE WHERE pattern as an evaluable group (the Patterns
	// templates with GRAPH blocks preserved), nil for the data operations.
	Where *Group
}

// UpdateRequest is a parsed SPARQL UPDATE request: its operations in
// textual order.
type UpdateRequest struct {
	Operations []*UpdateOperation
}

// ParseUpdate parses a SPARQL UPDATE request: a PREFIX prologue followed by
// ';'-separated INSERT DATA / DELETE DATA / DELETE WHERE operations.
func ParseUpdate(src string) (*UpdateRequest, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, prefixes: rdf.NewPrefixMap(nil)}
	req := &UpdateRequest{}
	for {
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
		if p.peek().kind == tokEOF {
			break
		}
		op, err := p.parseUpdateOperation()
		if err != nil {
			return nil, err
		}
		req.Operations = append(req.Operations, op)
		if !p.punct(";") {
			break
		}
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	if len(req.Operations) == 0 {
		return nil, fmt.Errorf("sparql: empty update request")
	}
	return req, nil
}

func (p *parser) parseUpdateOperation() (*UpdateOperation, error) {
	switch {
	case p.keyword("INSERT"):
		if err := p.expectKeyword("DATA"); err != nil {
			return nil, err
		}
		quads, err := p.parseQuadData(InsertData)
		if err != nil {
			return nil, err
		}
		return &UpdateOperation{Kind: InsertData, Quads: quads}, nil
	case p.keyword("DELETE"):
		switch {
		case p.keyword("DATA"):
			quads, err := p.parseQuadData(DeleteData)
			if err != nil {
				return nil, err
			}
			return &UpdateOperation{Kind: DeleteData, Quads: quads}, nil
		case p.keyword("WHERE"):
			return p.parseDeleteWhere()
		}
		return nil, p.errf("expected DATA or WHERE after DELETE, got %q", p.peek().text)
	}
	return nil, p.errf("expected INSERT DATA, DELETE DATA, or DELETE WHERE, got %q", p.peek().text)
}

// parseQuadData parses the '{ quads }' block of INSERT DATA / DELETE DATA:
// triples blocks at the top level (default graph) and inside
// GRAPH <uri> { ... } wrappers, all required to be ground.
func (p *parser) parseQuadData(kind UpdateKind) ([]UpdateQuad, error) {
	pqs, err := p.parseQuadPatterns()
	if err != nil {
		return nil, err
	}
	quads := make([]UpdateQuad, 0, len(pqs))
	for _, pq := range pqs {
		t, ok := groundTriple(pq.Pattern)
		if !ok {
			return nil, fmt.Errorf("sparql: %s requires ground triples, got variable in %s", kind, pq.Pattern)
		}
		if !t.Valid() {
			return nil, fmt.Errorf("sparql: %s: invalid triple %s", kind, t)
		}
		quads = append(quads, UpdateQuad{Graph: pq.Graph, Triple: t})
	}
	if len(quads) == 0 {
		return nil, fmt.Errorf("sparql: %s block holds no triples", kind)
	}
	return quads, nil
}

// parseDeleteWhere parses the pattern block of DELETE WHERE, which doubles
// as the deletion template: only triple patterns and GRAPH wrappers are
// allowed (FILTER and friends have no deletion semantics here).
func (p *parser) parseDeleteWhere() (*UpdateOperation, error) {
	pqs, err := p.parseQuadPatterns()
	if err != nil {
		return nil, err
	}
	if len(pqs) == 0 {
		return nil, fmt.Errorf("sparql: DELETE WHERE block holds no patterns")
	}
	// Rebuild the evaluable group from the parsed patterns, preserving the
	// GRAPH scoping: consecutive same-graph patterns share one GraphElem.
	where := &Group{}
	for i := 0; i < len(pqs); {
		if pqs[i].Graph == "" {
			where.Elems = append(where.Elems, BGPElem{Pattern: pqs[i].Pattern})
			i++
			continue
		}
		g := pqs[i].Graph
		inner := &Group{}
		for i < len(pqs) && pqs[i].Graph == g {
			inner.Elems = append(inner.Elems, BGPElem{Pattern: pqs[i].Pattern})
			i++
		}
		where.Elems = append(where.Elems, GraphElem{Graph: g, Group: inner})
	}
	return &UpdateOperation{Kind: DeleteWhere, Patterns: pqs, Where: where}, nil
}

// parseQuadPatterns parses '{ (TriplesBlock | GRAPH iri { TriplesBlock })* }'
// into graph-tagged triple patterns in textual order.
func (p *parser) parseQuadPatterns() ([]PatternQuad, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []PatternQuad
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			p.next()
			return out, nil
		case t.kind == tokEOF:
			return nil, p.errf("unterminated quad block")
		case t.kind == tokName && strings.EqualFold(t.text, "GRAPH"):
			p.next()
			uri, err := p.parseIRIRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			for !p.punct("}") {
				if p.peek().kind == tokEOF {
					return nil, p.errf("unterminated GRAPH block")
				}
				if p.punct(".") {
					continue
				}
				pats, err := p.parsePatternTriples()
				if err != nil {
					return nil, err
				}
				for _, tp := range pats {
					out = append(out, PatternQuad{Graph: uri, Pattern: tp})
				}
			}
		case t.kind == tokPunct && t.text == ".":
			p.next() // stray separator
		default:
			pats, err := p.parsePatternTriples()
			if err != nil {
				return nil, err
			}
			for _, tp := range pats {
				out = append(out, PatternQuad{Pattern: tp})
			}
		}
	}
}

// parsePatternTriples parses one subject's predicate-object list (with ';'
// and ',') into triple patterns, reusing the query parser's triples-block
// machinery.
func (p *parser) parsePatternTriples() ([]TriplePattern, error) {
	scratch := &Group{}
	if err := p.parseTriplesBlock(scratch); err != nil {
		return nil, err
	}
	out := make([]TriplePattern, 0, len(scratch.Elems))
	for _, el := range scratch.Elems {
		bgp, ok := el.(BGPElem)
		if !ok {
			return nil, fmt.Errorf("sparql: unexpected %T in quad block", el)
		}
		out = append(out, bgp.Pattern)
	}
	return out, nil
}

// groundTriple converts a fully-ground pattern to a triple; ok is false if
// any slot is a variable.
func groundTriple(tp TriplePattern) (rdf.Triple, bool) {
	if tp.S.IsVar || tp.P.IsVar || tp.O.IsVar {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term}, true
}
