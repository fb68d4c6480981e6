// Package dataframe implements a small table with the relational operations
// the paper's baselines perform in pandas: filtering, grouping with
// aggregation, sorting, projection, concatenation, and multiset comparison.
//
// A frame is dictionary-encoded, in the layout of the engine's compact
// result: a table of RDF terms whose entry 0 is the unbound term (the null),
// row-major uint32 cells indexing that table, and an explicit row count (a
// frame without columns still has rows). An in-process query therefore hands
// its answer to a frame without copying it (FromTable). The table may hold a
// term more than once — FromRows, Append and Concat add an entry per bound
// cell, and a query's computed values need not be distinct — so equal cells
// imply equal terms but not the reverse, and every comparison reads terms.
//
// Frames share their term table and, where they can, their cells with the
// frame or result they derive from. Every shared slice is capacity-capped
// (s[:len:len]), so Append and Concat copy before they write and never touch
// memory that another frame or a cached query result reads.
package dataframe

import (
	"fmt"
	"slices"
	"strings"

	"rdfframes/internal/rdf"
)

// DataFrame is an ordered set of named columns over a bag of rows.
type DataFrame struct {
	cols  []string
	index map[string]int
	terms []rdf.Term // terms[0] is the unbound term
	cells []uint32   // n rows of len(cols) indexes into terms
	n     int
}

// nullTable is the term table of a frame with no bound cell.
var nullTable = []rdf.Term{{}}

// New returns an empty dataframe with the given columns.
func New(cols ...string) *DataFrame {
	return newFrame(slices.Clone(cols), nullTable, nil, 0)
}

// newFrame adopts its arguments, capping the shared slices.
func newFrame(cols []string, terms []rdf.Term, cells []uint32, n int) *DataFrame {
	index := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := index[c]; dup {
			panic(fmt.Sprintf("dataframe: duplicate column %q", c))
		}
		index[c] = i
	}
	return &DataFrame{cols: slices.Clip(cols), index: index, terms: slices.Clip(terms), cells: slices.Clip(cells), n: n}
}

// over returns a frame with df's columns over the given table, capping the
// shared slices.
func (df *DataFrame) over(terms []rdf.Term, cells []uint32, n int) *DataFrame {
	return &DataFrame{cols: df.cols, index: df.index, terms: slices.Clip(terms), cells: slices.Clip(cells), n: n}
}

// FromTable adopts a dictionary-encoded table without copying it: rows rows
// of len(cols) cells indexing terms, whose entry 0 must be the unbound term.
// The frame only reads the slices, so they may be shared with a cached
// result, but nothing may change them afterwards.
func FromTable(cols []string, terms []rdf.Term, cells []uint32, rows int) *DataFrame {
	if len(terms) == 0 || terms[0].IsBound() || len(cells) != rows*len(cols) {
		panic(fmt.Sprintf("dataframe: %d cells, %d terms is not a table of %d rows by %d columns",
			len(cells), len(terms), rows, len(cols)))
	}
	return newFrame(cols, terms, cells, rows)
}

// FromRows builds a dataframe from columns and rows of terms, copying them
// into an exact-size table with one entry per bound cell: a first pass
// numbers the bound cells, which sizes the table, and a second copies their
// terms. Like Append, rows shorter than the column list are padded with
// nulls and longer ones truncated.
func FromRows(cols []string, rows [][]rdf.Term) *DataFrame {
	w := len(cols)
	cells := make([]uint32, len(rows)*w)
	next := uint32(1)
	for i, r := range rows {
		for j := range min(len(r), w) {
			if r[j].IsBound() {
				cells[i*w+j] = next
				next++
			}
		}
	}
	terms := make([]rdf.Term, next)
	for i, r := range rows {
		for j, c := range cells[i*w : i*w+min(len(r), w)] {
			if c != 0 {
				terms[c] = r[j]
			}
		}
	}
	return newFrame(slices.Clone(cols), terms, cells, len(rows))
}

// Columns returns the column names in order.
func (df *DataFrame) Columns() []string {
	return slices.Clone(df.cols)
}

// Len returns the number of rows.
func (df *DataFrame) Len() int { return df.n }

// HasColumn reports whether the dataframe has the named column.
func (df *DataFrame) HasColumn(name string) bool {
	_, ok := df.index[name]
	return ok
}

// Append adds a row (copied; padded or truncated to the column count).
func (df *DataFrame) Append(row []rdf.Term) {
	for j := range df.cols {
		var c uint32
		if j < len(row) && row[j].IsBound() {
			c = uint32(len(df.terms))
			df.terms = append(df.terms, row[j])
		}
		df.cells = append(df.cells, c)
	}
	df.n++
}

// row returns the cells of row i.
func (df *DataFrame) row(i int) []uint32 {
	w := len(df.cols)
	return df.cells[i*w : (i+1)*w]
}

// Cell returns the value at row i, column name.
func (df *DataFrame) Cell(i int, name string) rdf.Term {
	j, ok := df.index[name]
	if !ok {
		return rdf.Term{}
	}
	return df.terms[df.row(i)[j]]
}

// Column returns all values of a column.
func (df *DataFrame) Column(name string) []rdf.Term {
	j, ok := df.index[name]
	if !ok {
		return nil
	}
	out := make([]rdf.Term, df.n)
	for i := range out {
		out[i] = df.terms[df.row(i)[j]]
	}
	return out
}

// pick returns the frame of df's rows at the given positions, in that order.
func (df *DataFrame) pick(rows []int) *DataFrame {
	cells := make([]uint32, 0, len(rows)*len(df.cols))
	for _, i := range rows {
		cells = append(cells, df.row(i)...)
	}
	return df.over(df.terms, cells, len(rows))
}

// Filter returns the rows for which keep returns true. keep sees each row
// decoded into one scratch slice, valid only for the call.
func (df *DataFrame) Filter(keep func(row []rdf.Term, get func(col string) rdf.Term) bool) *DataFrame {
	row := make([]rdf.Term, len(df.cols))
	get := func(col string) rdf.Term {
		if j, ok := df.index[col]; ok {
			return row[j]
		}
		return rdf.Term{}
	}
	var kept []int
	for i := 0; i < df.n; i++ {
		for j, c := range df.row(i) {
			row[j] = df.terms[c]
		}
		if keep(row, get) {
			kept = append(kept, i)
		}
	}
	return df.pick(kept)
}

// Select projects the dataframe onto the given columns.
func (df *DataFrame) Select(cols ...string) (*DataFrame, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := df.index[c]
		if !ok {
			return nil, fmt.Errorf("dataframe: unknown column %q", c)
		}
		idx[i] = j
	}
	cells := make([]uint32, 0, df.n*len(cols))
	for i := 0; i < df.n; i++ {
		r := df.row(i)
		for _, j := range idx {
			cells = append(cells, r[j])
		}
	}
	return newFrame(slices.Clone(cols), df.terms, cells, df.n), nil
}

// Rename returns a dataframe with column old renamed to new.
func (df *DataFrame) Rename(old, new string) (*DataFrame, error) {
	j, ok := df.index[old]
	if !ok {
		return nil, fmt.Errorf("dataframe: unknown column %q", old)
	}
	cols := df.Columns()
	cols[j] = new
	return newFrame(cols, df.terms, df.cells, df.n), nil
}

// Distinct removes duplicate rows, keeping first occurrences.
func (df *DataFrame) Distinct() *DataFrame {
	seen := map[string]bool{}
	var kept []int
	for i := 0; i < df.n; i++ {
		if k := df.key(i, df.cols); !seen[k] {
			seen[k] = true
			kept = append(kept, i)
		}
	}
	return df.pick(kept)
}

// Head returns up to k rows starting at offset i.
func (df *DataFrame) Head(k, i int) *DataFrame {
	i = min(max(i, 0), df.n)
	end := i + min(max(k, 0), df.n-i)
	w := len(df.cols)
	return df.over(df.terms, df.cells[i*w:end*w], end-i)
}

// SortKey names a column and direction for Sort.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort returns the rows sorted by the given keys (stable).
func (df *DataFrame) Sort(keys ...SortKey) (*DataFrame, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		j, ok := df.index[k.Col]
		if !ok {
			return nil, fmt.Errorf("dataframe: unknown sort column %q", k.Col)
		}
		idx[i] = j
	}
	perm := make([]int, df.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		for i, k := range keys {
			c := rdf.Compare(df.terms[df.row(a)[idx[i]]], df.terms[df.row(b)[idx[i]]])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	return df.pick(perm), nil
}

// Concat appends other's rows to df's. The frames must have the same
// column set; other's columns may be in a different order.
func (df *DataFrame) Concat(other *DataFrame) (*DataFrame, error) {
	if len(df.cols) != len(other.cols) {
		return nil, fmt.Errorf("dataframe: concat of %d and %d columns", len(df.cols), len(other.cols))
	}
	idx := make([]int, len(df.cols))
	for i, c := range df.cols {
		j, ok := other.index[c]
		if !ok {
			return nil, fmt.Errorf("dataframe: concat missing column %q", c)
		}
		idx[i] = j
	}
	// other's terms follow df's, so its bound cells move up by the offset.
	off := uint32(len(df.terms) - 1)
	cells := append(make([]uint32, 0, (df.n+other.n)*len(idx)), df.cells...)
	for i := 0; i < other.n; i++ {
		r := other.row(i)
		for _, j := range idx {
			c := r[j]
			if c != 0 {
				c += off
			}
			cells = append(cells, c)
		}
	}
	return df.over(slices.Concat(df.terms, other.terms[1:]), cells, df.n+other.n), nil
}

// key renders row i's values in the named columns as one string, so that
// rows are equal on those columns exactly when their keys are.
func (df *DataFrame) key(i int, cols []string) string {
	var sb strings.Builder
	for _, c := range cols {
		sb.WriteString(df.Cell(i, c).String())
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// String renders up to 20 rows as a compact table, for debugging and
// examples.
func (df *DataFrame) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(df.cols, " | "))
	sb.WriteByte('\n')
	parts := make([]string, len(df.cols))
	for i := 0; i < df.n; i++ {
		if i == 20 {
			fmt.Fprintf(&sb, "... (%d rows total)\n", df.n)
			break
		}
		for j, c := range df.row(i) {
			parts[j] = df.terms[c].String()
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MultisetEqual reports whether two dataframes hold the same bag of rows
// over the same column set (column order may differ).
func MultisetEqual(a, b *DataFrame) bool {
	if a.Len() != b.Len() || len(a.cols) != len(b.cols) {
		return false
	}
	order := slices.Sorted(slices.Values(a.cols))
	if !slices.Equal(order, slices.Sorted(slices.Values(b.cols))) {
		return false
	}
	counts := map[string]int{}
	for i := 0; i < a.Len(); i++ {
		counts[a.key(i, order)]++
	}
	for i := 0; i < b.Len(); i++ {
		counts[b.key(i, order)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}
