package sparql

import "rdfframes/internal/rdf"

// Results is a SPARQL SELECT result: an ordered variable list and a bag of
// rows. Unbound cells are zero Terms.
type Results struct {
	Vars []string
	Rows [][]rdf.Term
}

// Len returns the number of rows.
func (r *Results) Len() int { return len(r.Rows) }
