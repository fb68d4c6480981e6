// Package dataframe implements a small columnar table with the relational
// operations the paper's baselines perform in pandas: filtering, grouping
// with aggregation, joins of all four types, sorting, projection, and
// multiset comparison. Cells are RDF terms; the zero Term is a null.
package dataframe

import (
	"fmt"
	"sort"
	"strings"

	"rdfframes/internal/rdf"
)

// DataFrame is an ordered set of named columns over a bag of rows.
type DataFrame struct {
	cols  []string
	index map[string]int
	rows  [][]rdf.Term
}

// New returns an empty dataframe with the given columns.
func New(cols ...string) *DataFrame {
	df := &DataFrame{cols: append([]string(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := df.index[c]; dup {
			panic(fmt.Sprintf("dataframe: duplicate column %q", c))
		}
		df.index[c] = i
	}
	return df
}

// fromRowsBlock is how many rows FromRows allocates at a time.
const fromRowsBlock = 1024

// FromRows builds a dataframe from columns and rows, copying the cells into
// blocks of fromRowsBlock rows that the frame's rows are sliced out of (a
// few allocations per frame rather than one per row, and none as large as
// the frame); like Append, rows shorter than the column list are padded
// with nulls and longer ones truncated.
func FromRows(cols []string, rows [][]rdf.Term) *DataFrame {
	df := New(cols...)
	w := len(df.cols)
	df.rows = make([][]rdf.Term, len(rows))
	var block []rdf.Term
	for i, r := range rows {
		if len(block) < w {
			block = make([]rdf.Term, w*min(fromRowsBlock, len(rows)-i))
		}
		df.rows[i] = block[:w:w]
		block = block[w:]
		copy(df.rows[i], r)
	}
	return df
}

// Columns returns the column names in order.
func (df *DataFrame) Columns() []string {
	return append([]string(nil), df.cols...)
}

// Len returns the number of rows.
func (df *DataFrame) Len() int { return len(df.rows) }

// HasColumn reports whether the dataframe has the named column.
func (df *DataFrame) HasColumn(name string) bool {
	_, ok := df.index[name]
	return ok
}

// Append adds a row (copied; padded or truncated to the column count).
func (df *DataFrame) Append(row []rdf.Term) {
	r := make([]rdf.Term, len(df.cols))
	copy(r, row)
	df.rows = append(df.rows, r)
}

// Cell returns the value at row i, column name.
func (df *DataFrame) Cell(i int, name string) rdf.Term {
	j, ok := df.index[name]
	if !ok {
		return rdf.Term{}
	}
	return df.rows[i][j]
}

// Row returns the i-th row (not a copy).
func (df *DataFrame) Row(i int) []rdf.Term { return df.rows[i] }

// Column returns all values of a column.
func (df *DataFrame) Column(name string) []rdf.Term {
	j, ok := df.index[name]
	if !ok {
		return nil
	}
	out := make([]rdf.Term, len(df.rows))
	for i, r := range df.rows {
		out[i] = r[j]
	}
	return out
}

// Filter returns the rows for which keep returns true.
func (df *DataFrame) Filter(keep func(row []rdf.Term, get func(col string) rdf.Term) bool) *DataFrame {
	out := New(df.cols...)
	for _, r := range df.rows {
		r := r
		get := func(col string) rdf.Term {
			j, ok := df.index[col]
			if !ok {
				return rdf.Term{}
			}
			return r[j]
		}
		if keep(r, get) {
			out.rows = append(out.rows, r)
		}
	}
	return out
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
	out := New(cols...)
	for _, r := range df.rows {
		nr := make([]rdf.Term, len(cols))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// Rename returns a dataframe with column old renamed to new.
func (df *DataFrame) Rename(old, new string) (*DataFrame, error) {
	j, ok := df.index[old]
	if !ok {
		return nil, fmt.Errorf("dataframe: unknown column %q", old)
	}
	cols := df.Columns()
	cols[j] = new
	out := New(cols...)
	out.rows = df.rows
	return out, nil
}

// Distinct removes duplicate rows, keeping first occurrences.
func (df *DataFrame) Distinct() *DataFrame {
	out := New(df.cols...)
	seen := map[string]bool{}
	for _, r := range df.rows {
		k := rowKey(r)
		if !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, r)
		}
	}
	return out
}

// Head returns up to k rows starting at offset i.
func (df *DataFrame) Head(k, i int) *DataFrame {
	out := New(df.cols...)
	if i < 0 {
		i = 0
	}
	for ; i < len(df.rows) && out.Len() < k; i++ {
		out.rows = append(out.rows, df.rows[i])
	}
	return out
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
	out := New(df.cols...)
	out.rows = append([][]rdf.Term(nil), df.rows...)
	sort.SliceStable(out.rows, func(a, b int) bool {
		for i, k := range keys {
			c := rdf.Compare(out.rows[a][idx[i]], out.rows[b][idx[i]])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out, nil
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
	out := New(df.cols...)
	out.rows = append(out.rows, df.rows...)
	for _, r := range other.rows {
		nr := make([]rdf.Term, len(df.cols))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// DropNull removes rows with a null in the named column.
func (df *DataFrame) DropNull(col string) *DataFrame {
	return df.Filter(func(_ []rdf.Term, get func(string) rdf.Term) bool {
		return get(col).IsBound()
	})
}

func rowKey(r []rdf.Term) string {
	var sb strings.Builder
	for _, t := range r {
		sb.WriteString(t.String())
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
	for i, r := range df.rows {
		if i == 20 {
			fmt.Fprintf(&sb, "... (%d rows total)\n", len(df.rows))
			break
		}
		parts := make([]string, len(r))
		for j, t := range r {
			parts[j] = t.String()
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
	order := append([]string(nil), a.cols...)
	sort.Strings(order)
	bo := append([]string(nil), b.cols...)
	sort.Strings(bo)
	for i := range order {
		if order[i] != bo[i] {
			return false
		}
	}
	counts := map[string]int{}
	key := func(df *DataFrame, i int) string {
		var sb strings.Builder
		for _, c := range order {
			sb.WriteString(df.Cell(i, c).String())
			sb.WriteByte('\x00')
		}
		return sb.String()
	}
	for i := 0; i < a.Len(); i++ {
		counts[key(a, i)]++
	}
	for i := 0; i < b.Len(); i++ {
		counts[key(b, i)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}
