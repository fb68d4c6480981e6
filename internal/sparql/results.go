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

// Rows are cut from blocks of between minBlockRows and maxBlockRows rows: a
// handful of allocations per result instead of one per row, but no single
// array the size of the result — a 20 MB allocation is zeroed and charged
// to GC assist in one go, which cost the embedded path 4% of its throughput.
const (
	minBlockRows = 16
	maxBlockRows = 1024
)

// rowBlocks cuts all-unbound rows of w terms out of block-allocated arrays.
// A row's capacity is capped at its length, so appending to one never
// writes into its neighbour.
type rowBlocks struct {
	w int
	// expect is the row count when known ahead, so the blocks fit it
	// exactly; at 0 a block holds as many rows as were cut before it, which
	// keeps a small result small and a large one to few allocations.
	expect int
	cut    int
	block  []rdf.Term // unused tail of the newest block
}

func (b *rowBlocks) next() []rdf.Term {
	if b.w == 0 {
		return []rdf.Term{}
	}
	if len(b.block) < b.w {
		n := max(b.cut, minBlockRows)
		if b.expect > 0 {
			n = b.expect - b.cut
		}
		b.block = make([]rdf.Term, b.w*min(n, maxBlockRows))
	}
	row := b.block[:b.w:b.w]
	b.block = b.block[b.w:]
	b.cut++
	return row
}
