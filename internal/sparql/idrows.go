package sparql

import (
	"maps"
	"math/bits"
	"slices"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// This file implements the ID-space execution model: solution multisets are
// columnar batches of dictionary ids (idRows) instead of per-row
// map[string]rdf.Term bindings. Every relational operator — BGP extension,
// join, left join, union, DISTINCT, GROUP BY keying — works on integer ids;
// terms are decoded only at the expression-evaluation and final-projection
// boundaries (see PERFORMANCE.md).

// extraIDBase is the first id the evaluator hands out for terms that are
// not interned in the store dictionary (values computed by BIND, projection
// expressions, aggregates, or carried in from subqueries). Store ids are
// dense, start at 1 and never exceed store.MaxTerms, so anything at or above
// this base can never collide with a store id.
const extraIDBase = store.ID(store.MaxTerms) + 1

// evalDict resolves ids to terms and interns query-computed terms, layered
// over the store dictionary. The store dictionary is never mutated, so
// concurrent queries stay safe; each evaluator owns its own evalDict.
type evalDict struct {
	dict     *store.Dictionary
	extra    []rdf.Term
	extraIdx map[rdf.Term]store.ID
}

func newEvalDict(d *store.Dictionary) *evalDict { return &evalDict{dict: d} }

// decode returns the term for id; 0 decodes to the unbound term.
func (d *evalDict) decode(id store.ID) rdf.Term {
	if id == 0 {
		return rdf.Term{}
	}
	if id >= extraIDBase {
		return d.extra[id-extraIDBase]
	}
	return d.dict.Decode(id)
}

// typeOf returns id's kind, datatype and language; a store id's value is
// not read.
func (d *evalDict) typeOf(id store.ID) rdf.Term {
	if id >= extraIDBase {
		return d.extra[id-extraIDBase]
	}
	return d.dict.Type(id)
}

// idsEqual is termsEqual over ids. Equal ids are the same term (see
// encode), so unless a side is numeric, which compares by value, the ids
// decide without decoding. An unbound side (0) is a type error.
func (d *evalDict) idsEqual(a, b store.ID) (bool, error) {
	if a == 0 || b == 0 {
		return false, errExpr
	}
	if !d.typeOf(a).IsNumeric() && !d.typeOf(b).IsNumeric() {
		return a == b, nil
	}
	return termsEqual(termValue(d.decode(a)), termValue(d.decode(b)))
}

// encode interns t, preferring the store dictionary (so id equality is term
// equality across stored and computed values). Unbound encodes to 0.
func (d *evalDict) encode(t rdf.Term) store.ID {
	if !t.IsBound() {
		return 0
	}
	if id, ok := d.dict.Lookup(t); ok {
		return id
	}
	if id, ok := d.extraIdx[t]; ok {
		return id
	}
	if d.extraIdx == nil {
		d.extraIdx = make(map[rdf.Term]store.ID)
	}
	id := extraIDBase + store.ID(len(d.extra))
	d.extra = append(d.extra, t)
	d.extraIdx[t] = id
	return id
}

// idRows is a columnar solution batch: vars names the columns and segs
// holds the rows as row-aligned segments, each a whole number of rows of
// len(vars) ids in row-major order. 0 is an unbound cell. A parallel
// operator's output is the list of the segments its morsels wrote, so
// merging morsels never copies a row. Without an order the rows are the
// segments' rows in order; with one (order non-nil), row i is the
// segment row numbered order[i]: number k is row k&(1<<shift-1) of
// segment k>>shift, read from its low 32 bits. Sorting, filtering,
// DISTINCT and slicing rewrite the order and leave the rows where they
// are; readers walk either layout with a cursor, and the few that need
// random access to an unordered batch of several segments number its
// rows or take one segment (flat). A batch with no columns can still hold
// rows (the unit solution a group evaluation starts from).
type idRows struct {
	vars  []string
	cols  map[string]int // var name -> column index
	segs  [][]store.ID
	n     int
	order []uint64
	shift int
	// shared: another header (the evaluation's subplan memo, its readers)
	// points to the same vars, cols, segments and order; see own.
	shared bool
	// one lists a batch's only segment (setRows), so that a flat batch
	// costs no allocation beyond its rows.
	one [1][]store.ID
}

func newIDRows(vars []string) *idRows {
	r := &idRows{vars: vars, cols: make(map[string]int, len(vars))}
	for i, v := range vars {
		r.cols[v] = i
	}
	return r
}

// unitSolution is the join identity: one row binding nothing.
func unitSolution() *idRows {
	r := newIDRows(nil)
	r.n = 1
	return r
}

func (r *idRows) width() int { return len(r.vars) }

// alias returns a second header over r's columns, rows and order.
func (r *idRows) alias() *idRows {
	a := &idRows{vars: r.vars, cols: r.cols, segs: r.segs, n: r.n, shared: true}
	if len(r.segs) == 1 {
		a.setRows(r.segs[0]) // not r.one, which r may overwrite
	}
	a.order, a.shift = r.order, r.shift
	return a
}

// setRows makes data the batch's only segment, its rows in order.
func (r *idRows) setRows(data []store.ID) {
	r.one[0] = data
	r.segs, r.order = r.one[:], nil
}

// own gives a shared batch a header and an order of its own. No row is
// copied: nothing writes to the segments under an order, so they stay
// shared, and a shared batch without one gets the order that lists its
// rows as they are. Every operator that changes a batch in place calls it
// first.
func (r *idRows) own() {
	if r.shared {
		r.vars, r.cols, r.shared = slices.Clone(r.vars), maps.Clone(r.cols), false
		if r.order != nil {
			r.order = slices.Clone(r.order)
		} else {
			r.number()
		}
	}
}

// number gives a batch with columns and no order the order that lists its
// rows as they are. Row numbers fit 32 bits: segments that cannot all be
// numbered are gathered into one first.
func (r *idRows) number() {
	w := len(r.vars)
	if r.order != nil || w == 0 {
		return
	}
	most := 1
	for _, s := range r.segs {
		most = max(most, len(s)/w)
	}
	if r.shift = bits.Len(uint(most - 1)); uint64(len(r.segs))<<r.shift > 1<<32 {
		r.flat()
		r.shift = bits.Len(uint(max(r.n, 1) - 1))
	}
	order := make([]uint64, 0, r.n)
	for g, s := range r.segs {
		for j := 0; j < len(s)/w; j++ {
			order = append(order, uint64(g<<r.shift|j))
		}
	}
	r.order = order
}

// gather copies the rows, in order, into one new segment of w columns, the
// ones past the batch's width unbound, and drops the order.
func (r *idRows) gather(w int) {
	data := make([]store.ID, r.n*w)
	rows := r.cursor(0)
	for i := 0; i < r.n; i++ {
		copy(data[i*w:], rows.next())
	}
	r.setRows(data)
}

// flat puts the rows in one segment in order, gathering them if they are
// in several or under an order, and returns it: the layout set indexes
// into. Only the header changes, so a shared batch stays shared.
func (r *idRows) flat() []store.ID {
	if r.order != nil || len(r.segs) != 1 {
		r.gather(len(r.vars))
	}
	return r.segs[0]
}

// numbered returns the segment row numbered k (see idRows).
func (r *idRows) numbered(k uint64) []store.ID {
	w, i := len(r.vars), int(uint32(k)&(1<<r.shift-1))
	return r.segs[uint32(k)>>r.shift][i*w : (i+1)*w]
}

// row and at address a flat or ordered batch; set a flat one.
func (r *idRows) row(i int) []store.ID {
	if r.order != nil {
		return r.numbered(r.order[i])
	}
	w := len(r.vars)
	return r.segs[0][i*w : (i+1)*w]
}

func (r *idRows) at(i, c int) store.ID      { return r.row(i)[c] }
func (r *idRows) set(i, c int, id store.ID) { r.segs[0][i*len(r.vars)+c] = id }

// rowCursor reads a batch's rows in order, across its segments or through
// its order.
type rowCursor struct {
	r     *idRows
	order []uint64     // the unread rows' numbers, in an ordered batch
	segs  [][]store.ID // the segments after seg, in an unordered one
	seg   []store.ID   // the current segment's unread rows
	w     int
}

// cursor returns a cursor at row lo.
func (r *idRows) cursor(lo int) rowCursor {
	c := rowCursor{r: r, w: len(r.vars)}
	if r.order != nil {
		c.order = r.order[lo:]
		return c
	}
	c.segs = r.segs
	for skip := lo * c.w; skip > 0; c.segs = c.segs[1:] {
		if skip < len(c.segs[0]) {
			c.seg = c.segs[0][skip:]
		}
		skip -= len(c.segs[0])
	}
	return c
}

// next returns the next row; the caller reads no more rows than there are.
func (c *rowCursor) next() []store.ID {
	if c.order != nil {
		k := c.order[0]
		c.order = c.order[1:]
		return c.r.numbered(k)
	}
	for len(c.seg) < c.w {
		c.seg, c.segs = c.segs[0], c.segs[1:]
	}
	row := c.seg[:c.w]
	c.seg = c.seg[c.w:]
	return row
}

func (r *idRows) col(name string) (int, bool) {
	c, ok := r.cols[name]
	return c, ok
}

// colsOf maps vars to r's columns, -1 for a variable r lacks.
func (r *idRows) colsOf(vars []string) []int {
	src := make([]int, len(vars))
	for j, v := range vars {
		if c, ok := r.cols[v]; ok {
			src[j] = c
		} else {
			src[j] = -1
		}
	}
	return src
}

// ensureCol returns the column for name, reshaping the batch to add it
// (zero-filled, in one new segment) when absent; the batch comes back
// flat and its own, for set.
func (r *idRows) ensureCol(name string) int {
	r.own()
	if c, ok := r.cols[name]; ok {
		r.flat()
		return c
	}
	c := len(r.vars)
	r.gather(c + 1)
	r.vars = append(r.vars, name)
	r.cols[name] = c
	return c
}

// appendRow adds a row to the last segment of a batch being built.
func (r *idRows) appendRow(row []store.ID) {
	if len(r.segs) == 0 {
		r.setRows(nil)
	}
	last := len(r.segs) - 1
	r.segs[last] = append(r.segs[last], row...)
	r.n++
}

// project returns a batch with exactly the given columns in order, its
// rows gathered into one segment; variables absent from r become
// all-unbound columns. An identity projection returns r itself, skipping
// the copy on the common SELECT * result path.
func (r *idRows) project(vars []string) *idRows {
	if slices.Equal(vars, r.vars) {
		return r
	}
	out := newIDRows(vars)
	src := r.colsOf(vars)
	data := make([]store.ID, 0, r.n*len(vars))
	rows := r.cursor(0)
	for i := 0; i < r.n; i++ {
		row := rows.next()
		for _, c := range src {
			if c < 0 {
				data = append(data, 0)
			} else {
				data = append(data, row[c])
			}
		}
	}
	out.setRows(data)
	out.n = r.n
	return out
}

// dropCols returns the batch without the named columns, keeping every row
// in order (no deduplication — bag semantics are preserved exactly). The
// planner schedules this for variables nothing downstream can read.
func (r *idRows) dropCols(names []string) *idRows {
	keep := make([]string, 0, len(r.vars))
	for _, v := range r.vars {
		dropped := false
		for _, d := range names {
			if v == d {
				dropped = true
				break
			}
		}
		if !dropped {
			keep = append(keep, v)
		}
	}
	if len(keep) == len(r.vars) {
		return r
	}
	return r.project(keep)
}

// retain keeps the rows keep accepts, in order. An unordered batch of its
// own is compacted in place, across its segments: a kept row moves to the
// first free row, never past where it was. An ordered or shared one keeps
// its rows where they are and drops the others from its order. An error
// from keep stops it, the batch undefined.
func (r *idRows) retain(keep func(row []store.ID) (bool, error)) error {
	r.own()
	src, dst := r.cursor(0), r.cursor(0)
	kept := 0
	for i := 0; i < r.n; i++ {
		row := src.next()
		ok, err := keep(row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if r.order != nil {
			r.order[kept] = r.order[i] // src has read it already
		} else {
			copy(dst.next(), row)
		}
		kept++
	}
	r.sliceRows(0, kept)
	return nil
}

// distinct removes rows that repeat an earlier row's ids in the key
// columns (see appendIDKey), keeping first occurrences in order. Rows are
// compared by id, which is exact term equality.
func (r *idRows) distinct(key []int) {
	seen := make(map[string]bool, r.n)
	var kb []byte
	_ = r.retain(func(row []store.ID) (bool, error) { // keep never fails
		kb = appendIDKey(kb[:0], row, key)
		if seen[string(kb)] {
			return false, nil
		}
		seen[string(kb)] = true
		return true, nil
	})
}

// sliceRows restricts the batch to rows [lo, hi) by re-slicing its order,
// or else its segments: no row moves, and a shared batch's rows, segment
// list and order stay as they are.
func (r *idRows) sliceRows(lo, hi int) {
	if r.order != nil {
		r.order, r.n = r.order[lo:hi], hi-lo
		return
	}
	w := len(r.vars)
	skip, left := lo*w, (hi-lo)*w
	segs := r.segs[:0]
	if r.shared {
		segs = nil
	}
	for _, s := range r.segs {
		cut := min(skip, len(s))
		s, skip = s[cut:], skip-cut
		s = s[:min(left, len(s))]
		if left -= len(s); len(s) > 0 {
			segs = append(segs, s)
		}
	}
	r.segs, r.n = segs, hi-lo
}

// appendIDKey appends the fixed-width byte encoding of row's ids in the
// key columns; a column c < 0, which the batch lacks, is unbound in every
// row and adds nothing. Fixed-width components make the key collision-free
// by construction.
func appendIDKey(buf []byte, row []store.ID, key []int) []byte {
	for _, c := range key {
		if c >= 0 {
			id := row[c]
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
	}
	return buf
}

// concatRows concatenates batches (a UNION): columns are the union of all
// branch columns in first-seen order, rows keep branch order.
func concatRows(parts []*idRows) *idRows {
	var vars []string
	seen := map[string]bool{}
	for _, p := range parts {
		for _, v := range p.vars {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	out := newIDRows(vars)
	total := 0
	for _, p := range parts {
		total += p.n
	}
	w := len(vars)
	data := make([]store.ID, total*w)
	for _, p := range parts {
		dst := out.colsOf(p.vars)
		rows := p.cursor(0)
		for i := 0; i < p.n; i++ {
			for j, id := range rows.next() {
				data[out.n*w+dst[j]] = id
			}
			out.n++
		}
	}
	out.setRows(data)
	return out
}

// joinShape precomputes how a pair of batches merges: shared columns, and
// where the right-only columns land in the output.
type joinShape struct {
	outVars   []string
	shared    [][2]int // (left col, right col) pairs
	rOnlyCols []int    // right columns without a left counterpart
	rOnlyOut  []int    // their output positions
}

func makeJoinShape(l, r *idRows) joinShape {
	js := joinShape{outVars: append([]string(nil), l.vars...)}
	for rc, v := range r.vars {
		if lc, ok := l.cols[v]; ok {
			js.shared = append(js.shared, [2]int{lc, rc})
		} else {
			js.rOnlyCols = append(js.rOnlyCols, rc)
			js.rOnlyOut = append(js.rOnlyOut, len(js.outVars))
			js.outVars = append(js.outVars, v)
		}
	}
	return js
}

// emit writes the SPARQL merge of lrow and rrow into buf: left values win
// where bound, right values fill the rest.
func (js *joinShape) emit(buf, lrow, rrow []store.ID) {
	copy(buf, lrow)
	for _, p := range js.shared {
		if buf[p[0]] == 0 {
			buf[p[0]] = rrow[p[1]]
		}
	}
	for k, rc := range js.rOnlyCols {
		buf[js.rOnlyOut[k]] = rrow[rc]
	}
}

// compatibleRows checks SPARQL mapping compatibility over the shared
// columns: bound values must agree; unbound is compatible with anything.
func compatibleRows(lrow, rrow []store.ID, shared [][2]int) bool {
	for _, p := range shared {
		lv, rv := lrow[p[0]], rrow[p[1]]
		if lv != 0 && rv != 0 && lv != rv {
			return false
		}
	}
	return true
}

// boundMask is a row's bound-mask over the shared columns: bit k is set
// when the row binds shared[k] on the given side (0 left, 1 right). Only the
// first 64 shared columns have a bit; a wider join verifies every pair.
func boundMask(row []store.ID, shared [][2]int, side int) (m uint64) {
	for k, p := range shared {
		if row[p[side]] != 0 {
			m |= 1 << k
		}
	}
	return m
}

// boundMasks lists the distinct bound-masks of r's rows in first-seen
// order: one pass, and one entry when every row binds the same columns.
func boundMasks(r *idRows, shared [][2]int, side int) []uint64 {
	out := make([]uint64, 0, 1)
	rows := r.cursor(0)
	for i := 0; i < r.n; i++ {
		m := boundMask(rows.next(), shared, side)
		if i == 0 || m != out[len(out)-1] && !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

// joinIndex is a hash index over the right rows with one bound-mask (a
// group), keyed on the shared columns a left bound-mask has in common with
// it. head maps a key's hash to the first such row + 1, next[j] to the row
// after j in its chain (-1 ends it); chains run ascending. Up to two key
// columns pack into the hash; a wider key is hashed, and check lists the
// column pairs that tell a match from a collision. Columns outside the key
// are unbound on one side of every pair the index serves, hence compatible,
// and an empty key chains the whole group: the cross product. Once built
// the index is read-only, so left-row morsels probe it concurrently.
type joinIndex struct {
	group      int    // which of the right side's bound-masks
	mask       uint64 // the key columns, as a bound-mask
	key, check [][2]int
	head       map[uint64]int32
	next       []int32
}

// hashKey hashes the key columns of one row of the given side.
func hashKey(row []store.ID, key [][2]int, side int) (h uint64) {
	switch len(key) {
	case 1:
		return uint64(row[key[0][side]])
	case 2:
		return uint64(row[key[0][side]])<<32 | uint64(row[key[1][side]])
	}
	for _, p := range key {
		h = (h ^ uint64(row[p[side]])) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// joinExec is one join compiled against its inputs: the merged shape and,
// for every bound-mask on the left (lmasks[i]), the index to probe in each
// right group (probes[i]); shared columns bound in every row make that one
// index. The index addresses right rows by number, so the right batch is
// made flat; the left one is read in order. joinRange only reads the exec
// and its batches, so disjoint left-row ranges run concurrently (see
// evaluator.join in parallel.go).
type joinExec struct {
	l, r      *idRows
	js        joinShape
	leftOuter bool
	lmasks    []uint64
	probes    [][]*joinIndex
}

// makeJoinExec builds the shape and, when both batches are non-empty, the
// indexes: every (left mask, right mask) pair that occurs gets the right
// group's index keyed on the intersection of the two. The groups' first
// indexes share one next array; a group probed under several keys needs
// one more for each.
func makeJoinExec(l, r *idRows, leftOuter bool) *joinExec {
	jx := &joinExec{l: l, r: r, js: makeJoinShape(l, r), leftOuter: leftOuter}
	if l.n == 0 || r.n == 0 {
		return jx
	}
	r.flat()
	shared := jx.js.shared
	jx.lmasks = boundMasks(l, shared, 0)
	groups := boundMasks(r, shared, 1)
	var indexes []*joinIndex
	next := make([]int32, r.n)
	for _, lm := range jx.lmasks {
		probe := make([]*joinIndex, len(groups))
		for g, rm := range groups {
			at := slices.IndexFunc(indexes, func(ix *joinIndex) bool { return ix.group == g && ix.mask == lm&rm })
			if at < 0 {
				at = len(indexes)
				ix := &joinIndex{group: g, mask: lm & rm, next: next}
				hint := r.n / len(groups)
				if ix.mask == 0 {
					hint = 1 // an empty key: one chain
				}
				ix.head = make(map[uint64]int32, hint)
				if slices.ContainsFunc(indexes, func(o *joinIndex) bool { return o.group == g }) {
					ix.next = make([]int32, r.n) // the group's rows are chained under another key already
				}
				for k, p := range shared {
					if ix.mask>>k&1 != 0 {
						ix.key = append(ix.key, p)
					}
				}
				if len(shared) > 64 {
					ix.check = shared
				} else if len(ix.key) > 2 {
					ix.check = ix.key
				}
				indexes = append(indexes, ix)
			}
			probe[g] = indexes[at]
		}
		jx.probes = append(jx.probes, probe)
	}
	g := 0
	for j := r.n - 1; j >= 0; j-- { // reverse, so chains run ascending
		row := r.row(j)
		if len(groups) > 1 {
			g = slices.Index(groups, boundMask(row, shared, 1))
		}
		for _, ix := range indexes {
			if ix.group == g {
				h := hashKey(row, ix.key, 1)
				ix.next[j] = ix.head[h] - 1 // missing key yields 0, i.e. end marker -1
				ix.head[h] = int32(j) + 1
			}
		}
	}
	return jx
}

// joinRange joins left rows [lo, hi) against the right batch into out and
// returns how many candidate pairs it checked. A left row meets, in each
// right group, the chain its key columns hash to: a candidate is a match
// unless the hash collided. Its matches come out group by group, ascending
// within a group. Every candidate ticks: one left row of a cross product
// sweeps the whole right batch.
func (jx *joinExec) joinRange(lo, hi int, tk *ticker, out *partWriter) (candidates int64, err error) {
	at := 0
	rows := jx.l.cursor(lo)
	for i := lo; i < hi; i++ {
		if err := tk.tick(); err != nil {
			return candidates, err
		}
		lrow := rows.next()
		if len(jx.lmasks) > 1 {
			if m := boundMask(lrow, jx.js.shared, 0); m != jx.lmasks[at] {
				at = slices.Index(jx.lmasks, m)
			}
		}
		matched := false
		for _, ix := range jx.probes[at] {
			for j := ix.head[hashKey(lrow, ix.key, 0)] - 1; j >= 0; j = ix.next[j] {
				if err := tk.tick(); err != nil {
					return candidates, err
				}
				candidates++
				rrow := jx.r.row(int(j))
				if ix.check == nil || compatibleRows(lrow, rrow, ix.check) {
					jx.js.emit(out.next(), lrow, rrow)
					matched = true
				}
			}
		}
		if !matched && jx.leftOuter {
			copy(out.next(), lrow) // an OPTIONAL that matched nothing: the right-only cells stay unbound
		}
	}
	return candidates, nil
}
