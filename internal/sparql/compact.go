package sparql

import (
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// compactResult is an evaluated result that stays in id space: row-major
// uint32 cells indexing a per-result table of the distinct terms. The table
// is resolved once, under the store read lock the evaluation already holds,
// so nothing downstream — the result cache, page slicing, the JSON encoder,
// the Results view — touches the store again. A cell costs 4 bytes however
// long its term is, and every per-term cost (decode, JSON rendering) is
// paid per distinct term, not per cell. A compactResult is immutable once
// built and safe to share across requests.
type compactResult struct {
	vars []string
	// terms holds the distinct terms in first-appearance order; terms[0] is
	// the unbound term, so a zero cell is an unbound cell.
	terms []rdf.Term
	cells []uint32 // n*len(vars) indexes into terms
	n     int
	// stats is what the evaluation that produced the result counted.
	stats evalStats
}

// compact resolves a projected id batch into a compactResult. The caller
// holds the store read lock (the evaluator dictionary reads the store's).
// Ids are numbered in first-appearance order as the cells are written, and
// the term table is filled afterwards, at its exact size: grown by append,
// a table of all-distinct terms allocated five times its final size.
func (ev *evaluator) compact(sols *idRows) (*compactResult, error) {
	c := &compactResult{
		vars:  append([]string(nil), sols.vars...),
		cells: make([]uint32, len(sols.data)),
		n:     sols.n,
		stats: ev.stats,
	}
	index := make(map[store.ID]uint32) // 0 is the unbound term's position: absent
	w := len(c.vars)
	for i := 0; i < sols.n; i++ {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		for k := i * w; k < (i+1)*w; k++ {
			id := sols.data[k]
			if id == 0 {
				continue
			}
			t := index[id]
			if t == 0 {
				t = uint32(len(index) + 1)
				index[id] = t
			}
			c.cells[k] = t
		}
	}
	c.terms = make([]rdf.Term, len(index)+1)
	for id, t := range index {
		c.terms[t] = ev.dict.decode(id)
	}
	return c, nil
}

// compactOf indexes an already-decoded result, for the callers that hold
// terms and want the one JSON encoder (MarshalJSON, WriteJSON, EXPLAIN
// output). Rows shorter than Vars read as unbound past their end.
func compactOf(r *Results) *compactResult {
	w := len(r.Vars)
	c := &compactResult{
		vars:  r.Vars,
		terms: make([]rdf.Term, 1),
		cells: make([]uint32, len(r.Rows)*w),
		n:     len(r.Rows),
	}
	index := make(map[rdf.Term]uint32)
	for i, row := range r.Rows {
		if len(row) > w {
			row = row[:w]
		}
		for j, term := range row {
			if !term.IsBound() {
				continue
			}
			t, ok := index[term]
			if !ok {
				t = uint32(len(c.terms))
				c.terms = append(c.terms, term)
				index[term] = t
			}
			c.cells[i*w+j] = t
		}
	}
	return c
}

// maxBlockRows caps the rows of one block that results cuts rows from: a
// handful of allocations per result instead of one per row, but no single
// array the size of the result — a 20 MB allocation is zeroed and charged
// to GC assist in one go, which cost the embedded path 4% of its throughput.
const maxBlockRows = 1024

// results materializes rows [lo, hi) as terms, in rows cut from blocks of at
// most maxBlockRows rows. A row's capacity is capped at its length, so
// appending to one never writes into its neighbour. Vars is shared and
// read-only.
func (c *compactResult) results(lo, hi int) *Results {
	w := len(c.vars)
	rows := make([][]rdf.Term, hi-lo)
	block := []rdf.Term{}
	for i := range rows {
		if len(block) < w {
			block = make([]rdf.Term, w*min(hi-lo-i, maxBlockRows))
		}
		row := block[:w:w]
		block = block[w:]
		for j, t := range c.cells[(lo+i)*w : (lo+i+1)*w] {
			row[j] = c.terms[t]
		}
		rows[i] = row
	}
	return &Results{Vars: c.vars, Rows: rows}
}
