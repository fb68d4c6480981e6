package sparql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"rdfframes/internal/freelist"
	"rdfframes/internal/rdf"
)

// The results table body: the engine's compact page written as is, for a
// client that lists TableMediaType in its Accept header. SPARQL-JSON stays
// the protocol's default; this body carries the same table without
// rendering a term per cell and parsing it back. docs/query-reference.md
// has the layout byte by byte:
//
//	version  one byte, tableVersion
//	columns  uvarint count, then each name as a uvarint length and its bytes
//	rows     uvarint
//	terms    uvarint count m, then m terms in rdf.AppendTerm form: entries
//	         1..m of the page's term table (entry 0 is the unbound term)
//	cells    rows × columns little-endian uint32, row-major, each 0..m

// TableMediaType is the media type of the results table body.
const TableMediaType = "application/x-rdfframes-table"

const tableVersion = 1

// tableEncoder is the scratch of one writeTable call. A window of a result
// is renumbered: remap maps a result entry to its page entry (0 = not on
// the page yet) and order lists the entries the page uses, which are all
// remap has to clear afterwards.
type tableEncoder struct {
	buf          []byte
	remap, order []uint32
}

// tableEncoders recycles encoders: from a sync.Pool, which the collector
// empties, a paging client would often pay for a remap the size of the
// result's term table.
var tableEncoders freelist.List[tableEncoder]

// writeTable streams rows [lo, hi) as one table body to w in chunks.
func (c *compactResult) writeTable(w io.Writer, lo, hi int) error {
	e := tableEncoders.Get()
	if e == nil {
		e = &tableEncoder{buf: make([]byte, 0, encodeChunkBytes+4<<10)}
	}
	nv := len(c.vars)
	cells := c.cells[lo*nv : hi*nv]
	// A whole result uses every entry of its table: it goes out as is.
	terms, renumber := len(c.terms)-1, lo > 0 || hi < c.n
	if renumber {
		if len(e.remap) < len(c.terms) {
			e.remap = make([]uint32, len(c.terms))
		}
		for _, t := range cells {
			if t != 0 && e.remap[t] == 0 {
				e.order = append(e.order, t)
				e.remap[t] = uint32(len(e.order))
			}
		}
		terms = len(e.order)
	}
	buf := e.buf[:0]
	defer func() {
		for _, t := range e.order {
			e.remap[t] = 0
		}
		e.buf, e.order = buf, e.order[:0]
		if cap(buf)+4*(cap(e.remap)+cap(e.order)) <= 4*maxPooledEncoderBytes {
			tableEncoders.Put(e)
		}
	}()
	flush := func() (err error) {
		if len(buf) >= encodeChunkBytes {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
		return err
	}

	buf = binary.AppendUvarint(append(buf, tableVersion), uint64(nv))
	for _, v := range c.vars {
		buf = append(binary.AppendUvarint(buf, uint64(len(v))), v...)
	}
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(hi-lo)), uint64(terms))
	for k := 1; k <= terms; k++ {
		t := uint32(k)
		if renumber {
			t = e.order[k-1]
		}
		buf = rdf.AppendTerm(buf, c.terms[t])
		if err := flush(); err != nil {
			return err
		}
	}
	for _, t := range cells {
		if renumber {
			t = e.remap[t]
		}
		buf = binary.LittleEndian.AppendUint32(buf, t)
		if err := flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(buf)
	return err
}

// WriteTable writes the response's page to w as a table body
// (TableMediaType), streamed from the engine's compact form.
func (r *Response) WriteTable(w io.Writer) error {
	defer r.trace.StartSpan("encode")()
	return r.entry.res.writeTable(w, r.lo, r.hi)
}

// WriteTable writes the results to w as a table body (TableMediaType).
func (r *Results) WriteTable(w io.Writer) error {
	return compactOf(r).writeTable(w, 0, len(r.Rows))
}

// ReadTable decodes one table body (TableMediaType) from rd and appends its
// rows as ReadJSON does a document's. A body that fails leaves the rows,
// terms and columns as they were, so the page can be read again.
func (t *Table) ReadTable(rd io.Reader) error {
	return t.read(rd, "table", (*Table).decodeTable)
}

// fill makes n bytes available after the cursor, keeping the window's
// bytes from *keep on as it refills.
func (w *jsonWindow) fill(n int, keep *int) error {
	for w.end-w.pos < n {
		if !w.more(keep) {
			return w.errAt("unexpected end of input")
		}
	}
	return nil
}

func (w *jsonWindow) uvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(w.buf[w.pos:w.end])
		if n > 0 {
			w.pos += n
			return v, nil
		}
		if n < 0 {
			return 0, w.errAt("length overflows 64 bits")
		}
		keep := w.pos
		if err := w.fill(w.end-w.pos+1, &keep); err != nil {
			return 0, err
		}
	}
}

// termBytes is one term of a table body, its strings in place.
type termBytes struct {
	kind                  rdf.TermKind
	value, datatype, lang []byte
}

// splitTerm cuts the rdf.AppendTerm encoding of one term from the front of
// b and returns its size, which is 0 when b ends inside the term.
func splitTerm(b []byte) (f termBytes, size int, err error) {
	if len(b) == 0 {
		return f, 0, nil
	}
	fields := []*[]byte{&f.value, &f.datatype, &f.lang}
	switch f.kind = rdf.TermKind(b[0]); f.kind {
	case rdf.IRIKind, rdf.BlankKind:
		fields = fields[:1]
	case rdf.LiteralKind:
	default:
		return f, 0, fmt.Errorf("unknown term kind %d", b[0])
	}
	size = 1
	for _, field := range fields {
		l, n := binary.Uvarint(b[size:])
		if n < 0 {
			return f, 0, errors.New("term length overflows 64 bits")
		}
		if n == 0 || l > uint64(len(b)-size-n) {
			return f, 0, nil
		}
		size += n
		*field, size = b[size:size+int(l)], size+int(l)
	}
	return f, size, nil
}

// growToward makes room for k more elements, growing s at least twofold
// but never past want more: a table grows to the counts a header states as
// the bytes arrive, and a header alone allocates nothing.
func growToward[S ~[]E, E any](s S, k, want int) S {
	if len(s)+k <= cap(s) {
		return s
	}
	return slices.Grow(s, min(want, max(len(s), k)))
}

// decodeTable appends the rows of one table body, leaving the table as it
// was if it fails.
func (t *Table) decodeTable(w *jsonWindow) (err error) {
	n, cells, terms, headed := t.n, len(t.cells), len(t.terms), t.headed
	defer func() {
		if err != nil {
			t.rollback(n, cells, headed)
			clear(t.terms[terms:])
			t.terms = t.terms[:terms]
		}
	}()
	if keep := w.pos; w.fill(1, &keep) != nil || w.buf[w.pos] != tableVersion {
		return w.errAt(fmt.Sprintf("not a version %d table body", tableVersion))
	}
	w.pos++
	k, err := w.uvarint()
	if err != nil {
		return err
	}
	vars := []string{}
	for range k {
		l, err := w.uvarint()
		if err == nil && l > 1<<40 {
			err = w.errAt("column name too long")
		}
		keep := w.pos
		if err == nil {
			err = w.fill(int(l), &keep)
		}
		if err != nil {
			return err
		}
		vars = append(vars, intern(t.intern, w.buf[w.pos:w.pos+int(l)]))
		w.pos += int(l)
	}
	if err := t.setColumns(vars); err != nil {
		return err
	}
	rows, err := w.uvarint()
	if err != nil {
		return err
	}
	// Rows without columns cost no bytes: a few bytes must not make a
	// reader expand any number of them.
	if k == 0 && rows > 1<<20 || k > 0 && rows > 1<<40/k {
		return w.errAt(fmt.Sprintf("%d rows of %d columns", rows, k))
	}

	// The terms, a window at a time: those whole in the window are checked,
	// summing their lexical forms' bytes, and before the window refills the
	// forms are carved out of one string — one allocation for most pages.
	m, err := w.uvarint()
	if err != nil {
		return err
	}
	if uint64(len(t.terms))+m > 1<<32-1 {
		return w.errAt(fmt.Sprintf("%d terms overflow the cells", m))
	}
	from, cut, text := w.pos, 0, 0 // the window's unconverted terms
	carve := func() {
		t.terms = growToward(t.terms, cut, int(m)-(len(t.terms)-terms))
		var forms strings.Builder
		forms.Grow(text)
		for b := w.buf[from:w.pos]; len(b) > 0; {
			f, size, _ := splitTerm(b)
			b = b[size:]
			at := forms.Len()
			forms.Write(f.value)
			// Grown once, the builder never moves what it holds.
			term := rdf.Term{Kind: f.kind, Value: forms.String()[at:]}
			if term.Lang = intern(t.intern, f.lang); term.Lang == "" {
				term.Datatype = intern(t.intern, f.datatype) // given both, JSON keeps the tag too
			}
			t.terms = append(t.terms, term)
		}
		from, cut, text = w.pos, 0, 0
	}
	for i := uint64(0); i < m; {
		f, size, err := splitTerm(w.buf[w.pos:w.end])
		switch {
		case err != nil:
			err = w.errAt(err.Error())
		case size == 0:
			carve()
			err = w.fill(w.end-w.pos+1, &from)
		default:
			w.pos += size
			i, cut, text = i+1, cut+1, text+len(f.value)
		}
		if err != nil {
			return err
		}
	}
	carve()

	base := uint32(terms - 1) // page entry i is table entry base+i
	for left := int(rows * k); left > 0; {
		keep := w.pos
		if err := w.fill(4, &keep); err != nil {
			return err
		}
		avail := min(left, (w.end-w.pos)/4)
		t.cells = growToward(t.cells, avail, left)
		for end := w.pos + 4*avail; w.pos < end; w.pos += 4 {
			c := binary.LittleEndian.Uint32(w.buf[w.pos:])
			if uint64(c) > m {
				return w.errAt(fmt.Sprintf("cell names entry %d of %d", c, m))
			}
			if c != 0 {
				c += base
			}
			t.cells = append(t.cells, c)
		}
		left -= avail
	}
	t.n += int(rows)
	if keep := w.pos; w.pos < w.end || w.more(&keep) || w.rerr != io.EOF && w.rerr != nil {
		return w.errAt("trailing data after the cells")
	}
	return nil
}
