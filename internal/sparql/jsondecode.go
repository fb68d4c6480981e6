package sparql

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"rdfframes/internal/rdf"
)

// SPARQL JSON results decoder. There is one decoder, and it streams: a
// jsonWindow pulls the body through a refilling buffer and cuts it into
// the raw bytes of one value at a time, and a jsonScanner checks and
// decodes those bytes strictly. What it builds is a Table, the engine's
// compact layout: a binding writes one uint32 cell indexing a term table. A
// term object is looked up by its raw bytes in a memo of the table entries
// decoded so far, so a repeated term costs one map lookup and is never
// scanned a second time; only a first sighting pays for the strict parse
// and a table entry. Allocations therefore grow with the distinct terms and
// the cells' 4 bytes, and the body is never held whole — unless "results"
// precedes "head", when the bindings must wait for the column list.
//
// The grammar accepted is RFC 8259 as encoding/json enforces it (strict
// numbers, escapes and control characters, invalid UTF-8 decoded as U+FFFD,
// nesting capped at 10,000), which FuzzReadJSON checks differentially. The
// four structural members ("head", "vars", "results", "bindings") may each
// appear once per object; the format never repeats them and a decoder that
// let the last one win could not stream.

// decodeWindowBytes is the initial window: it only has to hold the largest
// single value (a term object, a key), and grows when one does not fit.
const decodeWindowBytes = 64 << 10

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

var windowPool = sync.Pool{New: func() any {
	b := make([]byte, decodeWindowBytes)
	return &b
}}

// ReadJSON parses SPARQL JSON results from rd.
func ReadJSON(rd io.Reader) (*Results, error) {
	t := ScratchTable()
	defer t.Release()
	if err := t.ReadJSON(rd); err != nil {
		return nil, err
	}
	return t.Results(), nil
}

// UnmarshalJSON decodes the SPARQL JSON results format.
func (r *Results) UnmarshalJSON(data []byte) error {
	t := ScratchTable()
	defer t.Release()
	if err := t.decode(&jsonWindow{buf: data, end: len(data)}); err != nil {
		return err
	}
	*r = *t.Results()
	return nil
}

// ErrColumnsChanged reports a results document whose column list differs
// from the one the table already holds rows under. Fetching the same page
// again would not change it.
var ErrColumnsChanged = errors.New("sparql: results document changed the columns")

// Table accumulates SPARQL JSON results documents — the pages of one result
// — in the engine's compact layout: the columns of the first document,
// row-major uint32 cells, and a table of the terms they index whose entry 0
// is the unbound term. The memo of decoded term objects carries over from
// page to page. Once the memo stops growing (see term) a new term takes a
// table entry per cell, so the table may hold a term more than once.
type Table struct {
	compactResult
	headed bool // vars is fixed by a decoded document
	// memo maps a term object's raw bytes to its table entry. It stops taking
	// new terms once it is large and rarely hit, so a result of all-distinct
	// terms does not pay for a map it never reads: memoizing every term takes
	// BenchmarkDecodeJSON/distinct from 120 to 295 ms and from 30 to 132 MB
	// per decode.
	memo     map[string]uint32
	memoHits int
	intern   map[string]string
	unescape []byte // the term scanners' scratch, kept across terms
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		compactResult: compactResult{terms: []rdf.Term{{}}},
		memo:          make(map[string]uint32),
		intern:        make(map[string]string),
	}
}

var tablePool = sync.Pool{New: func() any { return NewTable() }}

// ScratchTable returns an empty table for a caller that converts it (see
// Results) and hands it back with Release.
func ScratchTable() *Table { return tablePool.Get().(*Table) }

// Release empties a table from ScratchTable and returns it for reuse, up to
// 4 MiB of cells and 3.5 MiB of terms. The table, and any slice Parts
// returned, must not be used afterwards.
func (t *Table) Release() {
	if cap(t.cells) > 1<<20 || cap(t.terms) > 1<<16 {
		return
	}
	t.Reset()
	tablePool.Put(t)
}

// Reset empties the table, columns included, and keeps its memory.
func (t *Table) Reset() {
	clear(t.terms[1:])
	clear(t.memo)
	clear(t.intern)
	t.compactResult = compactResult{terms: t.terms[:1], cells: t.cells[:0]}
	t.headed, t.memoHits = false, 0
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Parts returns the table's columns, terms and cells (Len rows of
// len(vars)), for adopting it whole (dataframe.FromTable).
func (t *Table) Parts() (vars []string, terms []rdf.Term, cells []uint32) {
	return t.vars, t.terms, t.cells
}

// Results returns the table's rows as terms. They share nothing with the
// table but its column list.
func (t *Table) Results() *Results { return t.results(0, t.n) }

// ReadJSON decodes one SPARQL JSON results document from rd and appends its
// rows. A document that fails appends none: terms it added may stay, being
// whole terms, but the cells and the row count are as before, so the page
// can be read again.
func (t *Table) ReadJSON(rd io.Reader) error {
	return t.read(rd, "", (*Table).decode)
}

// read runs decode, the decoder of format, over rd through a pooled window.
func (t *Table) read(rd io.Reader, format string, decode func(*Table, *jsonWindow) error) error {
	bp := windowPool.Get().(*[]byte)
	w := &jsonWindow{r: rd, buf: *bp, format: format}
	err := decode(t, w)
	if cap(w.buf) <= 16*decodeWindowBytes {
		*bp = w.buf[:cap(w.buf)]
		windowPool.Put(bp)
	}
	return err
}

// jsonWindow is the streaming half: a buffer over an io.Reader that refills
// as the cursor reaches its end, keeping the bytes of the value being cut.
// With a nil reader the buffer is the whole input.
type jsonWindow struct {
	r        io.Reader
	buf      []byte // buf[pos:end] is unread
	pos, end int
	base     int64  // input offset of buf[0]
	rerr     error  // what the reader returned last, io.EOF included
	format   string // what the input is, for errors; "" is JSON
}

func (w *jsonWindow) errAt(msg string) error {
	format := cmp.Or(w.format, "JSON")
	if w.rerr != nil && w.rerr != io.EOF && w.pos == w.end {
		return fmt.Errorf("sparql: reading results %s at offset %d: %w", format, w.base+int64(w.pos), w.rerr)
	}
	return fmt.Errorf("sparql: malformed results %s at offset %d: %s", format, w.base+int64(w.pos), msg)
}

// more reads further input behind buf[end]. When the buffer is full it
// first makes room, moving buf[keep:end] to the front, or growing the
// buffer if that frees nothing. It reports whether any bytes arrived; keep,
// pos and end move together.
func (w *jsonWindow) more(keep *int) bool {
	if w.r == nil || w.rerr != nil {
		return false
	}
	if w.end == len(w.buf) {
		if *keep > 0 {
			w.end = copy(w.buf, w.buf[*keep:w.end])
			w.base += int64(*keep)
			w.pos -= *keep
			*keep = 0
		} else {
			w.buf = append(w.buf, make([]byte, len(w.buf))...)
		}
	}
	for tries := 0; ; tries++ {
		n, err := w.r.Read(w.buf[w.end:])
		w.end += n
		if err == nil && n == 0 && tries == 100 {
			err = io.ErrNoProgress
		}
		if err != nil {
			w.rerr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// peek returns the next non-whitespace byte without consuming it.
func (w *jsonWindow) peek() (byte, error) {
	for {
		for w.pos < w.end {
			switch c := w.buf[w.pos]; c {
			case ' ', '\t', '\n', '\r':
				w.pos++
			default:
				return c, nil
			}
		}
		if keep := w.pos; !w.more(&keep) {
			return 0, w.errAt("unexpected end of input")
		}
	}
}

func (w *jsonWindow) expect(c byte) error {
	got, err := w.peek()
	if err != nil {
		return err
	}
	if got != c {
		return w.errAt(fmt.Sprintf("expected %q, found %q", c, got))
	}
	w.pos++
	return nil
}

// closeOrComma consumes the separator after an element of a container
// closed by close, reporting whether the container ended.
func (w *jsonWindow) closeOrComma(close byte) (bool, error) {
	c, err := w.peek()
	if err != nil {
		return false, err
	}
	if c != close && c != ',' {
		return false, w.errAt(fmt.Sprintf("expected ',' or %q", close))
	}
	w.pos++
	return c == close, nil
}

// empty consumes close if the container just opened has no elements.
func (w *jsonWindow) empty(close byte) (bool, error) {
	c, err := w.peek()
	if err != nil || c != close {
		return false, err
	}
	w.pos++
	return true, nil
}

// value cuts the next JSON value out of the input and returns its raw
// bytes, valid until the next call on the window. The cut is loose — it
// balances brackets and skips strings — and leaves the grammar to the
// jsonScanner that parses the bytes: a span cut wrong from malformed input
// fails there.
func (w *jsonWindow) value() ([]byte, error) {
	if _, err := w.peek(); err != nil {
		return nil, err
	}
	start, depth, inString := w.pos, 0, false
	for {
		for w.pos < w.end {
			if inString {
				// Jump to the closing quote, unless an escape comes first.
				rest := w.buf[w.pos:w.end]
				quote := bytes.IndexByte(rest, '"')
				if quote >= 0 {
					rest = rest[:quote]
				}
				if esc := bytes.IndexByte(rest, '\\'); esc >= 0 {
					w.pos += esc + 1 // onto the escaped byte, which is skipped
					if w.pos == w.end && !w.more(&start) {
						return nil, w.errAt("unexpected end of input")
					}
					w.pos++
					continue
				}
				if quote < 0 {
					w.pos = w.end
					break
				}
				w.pos += quote + 1
				inString = false
				if depth == 0 {
					return w.buf[start:w.pos], nil
				}
				continue
			}
			switch w.buf[w.pos] {
			case '"':
				inString = true
			case '{', '[':
				depth++
			case '}', ']':
				if depth == 0 {
					return w.buf[start:w.pos], nil // a scalar ended by its container
				}
				if depth--; depth == 0 {
					w.pos++
					return w.buf[start:w.pos], nil
				}
			case ',', ' ', '\t', '\n', '\r':
				if depth == 0 {
					return w.buf[start:w.pos], nil
				}
			}
			w.pos++
		}
		if !w.more(&start) {
			return nil, w.errAt("unexpected end of input")
		}
	}
}

// scanner returns a strict scanner over raw, which must be the bytes the
// window's last value call returned, with depth containers open around it.
func (w *jsonWindow) scanner(raw []byte, depth int, intern map[string]string) jsonScanner {
	return jsonScanner{
		jsonWindow: jsonWindow{buf: raw, end: len(raw), base: w.base + int64(w.pos-len(raw))},
		depth:      depth,
		intern:     intern,
	}
}

// jsonScanner is the strict half: a JSON parser over a window that holds
// one value whole (no reader behind it, so nothing it points into moves).
type jsonScanner struct {
	jsonWindow
	depth  int // containers open around the cursor
	intern map[string]string
	unesc  []byte // scratch for strings that need rewriting
	// rewritten reports that the last string was decoded into unesc rather
	// than returned in place.
	rewritten bool
}

// finish checks that nothing but whitespace follows the value just parsed.
func (s *jsonScanner) finish() error {
	for ; s.pos < s.end; s.pos++ {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return s.errAt("unexpected data after value")
		}
	}
	return nil
}

// open consumes c, the opening bracket of a container, and counts it
// against the nesting limit.
func (s *jsonScanner) open(c byte) error {
	if err := s.expect(c); err != nil {
		return err
	}
	if s.depth++; s.depth > maxJSONDepth {
		return s.errAt("exceeded max depth")
	}
	return nil
}

// closeOrComma and empty are the window's, keeping count of the depth.
func (s *jsonScanner) closeOrComma(close byte) (bool, error) {
	done, err := s.jsonWindow.closeOrComma(close)
	if done {
		s.depth--
	}
	return done, err
}

func (s *jsonScanner) empty(close byte) (bool, error) {
	done, err := s.jsonWindow.empty(close)
	if done {
		s.depth--
	}
	return done, err
}

// key parses an object member's name and the colon after it. The bytes are
// valid until the scanner's next string.
func (s *jsonScanner) key() ([]byte, error) {
	k, err := s.stringBytes()
	if err != nil {
		return nil, err
	}
	return k, s.expect(':')
}

// internString parses a string drawn from a small vocabulary (variable
// names, datatypes, language tags), sharing one copy per distinct value.
func (s *jsonScanner) internString() (string, error) {
	b, err := s.stringBytes()
	if err != nil {
		return "", err
	}
	return intern(s.intern, b), nil
}

// intern returns the copy of b that m holds, adding one first if need be.
func intern(m map[string]string, b []byte) string {
	if v, ok := m[string(b)]; ok {
		return v
	}
	v := string(b)
	m[v] = v
	return v
}

// stringBytes parses a JSON string and returns its decoded bytes, valid
// until the scanner's next string. A string without escapes or invalid
// UTF-8 is returned in place.
func (s *jsonScanner) stringBytes() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos
	s.rewritten = false
	var high byte
	for s.pos < s.end {
		c := s.buf[s.pos]
		if c == '"' {
			raw := s.buf[start:s.pos]
			if high >= utf8.RuneSelf && !utf8.Valid(raw) {
				return s.stringSlow(start)
			}
			s.pos++
			return raw, nil
		}
		if c == '\\' {
			return s.stringSlow(start)
		}
		if c < 0x20 {
			return nil, s.errAt("control character in string")
		}
		high |= c
		s.pos++
	}
	return nil, s.errAt("unterminated string")
}

// stringSlow decodes a string that needs rewriting — escapes, or invalid
// UTF-8 — from start, the byte after its opening quote.
func (s *jsonScanner) stringSlow(start int) ([]byte, error) {
	s.pos, s.unesc, s.rewritten = start, s.unesc[:0], true
	for s.pos < s.end {
		c := s.buf[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.unesc, nil
		case c == '\\':
			s.pos++
			if s.pos >= s.end {
				return nil, s.errAt("dangling escape")
			}
			e := s.buf[s.pos]
			s.pos++
			switch e {
			case '"', '\\', '/':
				s.unesc = append(s.unesc, e)
			case 'b':
				s.unesc = append(s.unesc, '\b')
			case 'f':
				s.unesc = append(s.unesc, '\f')
			case 'n':
				s.unesc = append(s.unesc, '\n')
			case 'r':
				s.unesc = append(s.unesc, '\r')
			case 't':
				s.unesc = append(s.unesc, '\t')
			case 'u':
				r, err := s.parseHex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(rune(r)) {
					if s.pos+1 < s.end && s.buf[s.pos] == '\\' && s.buf[s.pos+1] == 'u' {
						s.pos += 2
						r2, err := s.parseHex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(rune(r), rune(r2)); dec != utf8.RuneError {
							s.unesc = utf8.AppendRune(s.unesc, dec)
							continue
						}
						// Lone surrogate: emit one replacement and rewind
						// so the second escape is processed on its own (it
						// may be a valid char or the lead of a new pair).
						s.pos -= 6
						s.unesc = utf8.AppendRune(s.unesc, utf8.RuneError)
						continue
					}
					s.unesc = utf8.AppendRune(s.unesc, utf8.RuneError)
					continue
				}
				s.unesc = utf8.AppendRune(s.unesc, rune(r))
			default:
				return nil, s.errAt(fmt.Sprintf("unknown escape \\%c", e))
			}
		case c < 0x20:
			return nil, s.errAt("control character in string")
		case c < utf8.RuneSelf:
			s.unesc = append(s.unesc, c)
			s.pos++
		default:
			// One U+FFFD per invalid byte, as encoding/json decodes it.
			r, size := utf8.DecodeRune(s.buf[s.pos:s.end])
			s.unesc = utf8.AppendRune(s.unesc, r)
			s.pos += size
		}
	}
	return nil, s.errAt("unterminated string")
}

func (s *jsonScanner) parseHex4() (uint32, error) {
	if s.pos+4 > s.end {
		return 0, s.errAt("truncated \\u escape")
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := s.buf[s.pos+i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, s.errAt("bad \\u escape")
		}
	}
	s.pos += 4
	return v, nil
}

// skipValue checks and consumes any JSON value.
func (s *jsonScanner) skipValue() error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := s.open('{'); err != nil {
			return err
		}
		if done, err := s.empty('}'); done || err != nil {
			return err
		}
		for {
			if _, err := s.key(); err != nil {
				return err
			}
			if err := s.skipValue(); err != nil {
				return err
			}
			if done, err := s.closeOrComma('}'); done || err != nil {
				return err
			}
		}
	case '[':
		if err := s.open('['); err != nil {
			return err
		}
		if done, err := s.empty(']'); done || err != nil {
			return err
		}
		for {
			if err := s.skipValue(); err != nil {
				return err
			}
			if done, err := s.closeOrComma(']'); done || err != nil {
				return err
			}
		}
	case '"':
		_, err := s.stringBytes()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		return s.number()
	}
}

func (s *jsonScanner) literal(lit string) error {
	if s.pos+len(lit) > s.end || string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return s.errAt("bad literal")
	}
	s.pos += len(lit)
	return nil
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *jsonScanner) number() error {
	digits := func() bool {
		start := s.pos
		for s.pos < s.end && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9' {
			s.pos++
		}
		return s.pos > start
	}
	at := func(set string) bool {
		return s.pos < s.end && bytes.IndexByte([]byte(set), s.buf[s.pos]) >= 0
	}
	if at("-") {
		s.pos++
	}
	if at("0") {
		s.pos++
	} else if !digits() {
		return s.errAt("unexpected value")
	}
	if at(".") {
		s.pos++
		if !digits() {
			return s.errAt("bad number")
		}
	}
	if at("eE") {
		s.pos++
		if at("+-") {
			s.pos++
		}
		if !digits() {
			return s.errAt("bad number")
		}
	}
	return nil
}

// Nesting depth of the format's own containers, which is the depth a strict
// scanner starts at inside each: the document, "head" and "results", the
// "bindings" array, a row.
const (
	depthDocument = 1 + iota
	depthResults
	depthBindings
	depthRow
)

// resultsDecoder appends the rows of one document to a table.
type resultsDecoder struct {
	t    *Table
	name []byte // the member name last read

	headSeen, resultsSeen bool
	// "results" ahead of "head" is legal JSON with an unknown column set:
	// its bytes wait here, at input offset pendingBase, for the document
	// to end.
	pending     []byte
	pendingBase int64

	varIdx map[string]int
}

// decode appends the rows of one SPARQL JSON results document from w,
// leaving the cells and row count as they were if it fails.
func (t *Table) decode(w *jsonWindow) (err error) {
	n, cells, headed := t.n, len(t.cells), t.headed
	defer func() {
		if err != nil {
			t.rollback(n, cells, headed)
		}
	}()
	d := &resultsDecoder{t: t}
	if err := d.document(w); err != nil {
		return err
	}
	if _, err := w.peek(); err == nil {
		return w.errAt("trailing data after results")
	} else if w.rerr != io.EOF && w.rerr != nil {
		return err
	}
	if !d.headSeen {
		if err := t.setColumns(nil); err != nil {
			return err
		}
	}
	if d.pending != nil {
		pw := &jsonWindow{buf: d.pending, end: len(d.pending), base: d.pendingBase}
		return d.results(pw)
	}
	return nil
}

// member reads the next object member's name, strictly, and the colon
// after it. The name is valid until the next call.
func (d *resultsDecoder) member(w *jsonWindow, depth int) ([]byte, error) {
	raw, err := w.value()
	if err != nil {
		return nil, err
	}
	s := w.scanner(raw, depth, d.t.intern)
	name, err := s.stringBytes()
	if err == nil {
		err = s.finish()
	}
	if err != nil {
		return nil, err
	}
	d.name = append(d.name[:0], name...) // the colon may refill the window
	return d.name, w.expect(':')
}

// skip checks and discards the next value.
func (d *resultsDecoder) skip(w *jsonWindow, depth int) error {
	raw, err := w.value()
	if err != nil {
		return err
	}
	s := w.scanner(raw, depth, d.t.intern)
	if err := s.skipValue(); err != nil {
		return err
	}
	return s.finish()
}

// document parses the top-level object.
func (d *resultsDecoder) document(w *jsonWindow) error {
	if err := w.expect('{'); err != nil {
		return err
	}
	if done, err := w.empty('}'); done || err != nil {
		return err
	}
	for {
		name, err := d.member(w, depthDocument)
		if err != nil {
			return err
		}
		switch string(name) {
		case "head":
			if d.headSeen {
				return w.errAt(`duplicate "head" member`)
			}
			d.headSeen = true
			raw, err := w.value()
			if err != nil {
				return err
			}
			s := w.scanner(raw, depthDocument, d.t.intern)
			if err := d.head(&s); err != nil {
				return err
			}
		case "results":
			if d.resultsSeen {
				return w.errAt(`duplicate "results" member`)
			}
			d.resultsSeen = true
			if d.headSeen {
				err = d.results(w)
			} else {
				var raw []byte
				if raw, err = w.value(); err == nil {
					d.pending = append([]byte{}, raw...) // non-nil even when empty
					d.pendingBase = w.base + int64(w.pos-len(raw))
				}
			}
			if err != nil {
				return err
			}
		default:
			if err := d.skip(w, depthDocument); err != nil {
				return err
			}
		}
		if done, err := w.closeOrComma('}'); done || err != nil {
			return err
		}
	}
}

// head parses the "head" object and installs its column list.
func (d *resultsDecoder) head(s *jsonScanner) error {
	if err := s.open('{'); err != nil {
		return err
	}
	var vars []string
	varsSeen := false
	done, err := s.empty('}')
	for !done && err == nil {
		var name []byte
		if name, err = s.key(); err != nil {
			break
		}
		switch {
		case string(name) != "vars":
			err = s.skipValue()
		case varsSeen:
			err = s.errAt(`duplicate "vars" member`)
		default:
			varsSeen = true
			vars, err = s.stringList()
		}
		if err == nil {
			done, err = s.closeOrComma('}')
		}
	}
	if err == nil {
		err = s.finish()
	}
	if err == nil {
		err = d.t.setColumns(vars)
	}
	if err != nil {
		return err
	}
	d.varIdx = make(map[string]int, len(vars))
	for i, v := range vars {
		d.varIdx[v] = i
	}
	return nil
}

// setColumns fixes the table's columns as a page's, or checks that they are
// the ones earlier pages fixed: a page whose head renames or reorders them
// would put its cells under the wrong names.
func (t *Table) setColumns(vars []string) error {
	switch {
	case !t.headed:
		t.vars, t.headed = vars, true
	case !slices.Equal(vars, t.vars):
		return fmt.Errorf("%w: %q, earlier pages %q", ErrColumnsChanged, vars, t.vars)
	}
	return nil
}

// rollback undoes a failed read: the rows go back to the first n with their
// cells, and the columns are unfixed again unless an earlier page fixed
// them.
func (t *Table) rollback(n, cells int, headed bool) {
	t.n, t.cells = n, t.cells[:cells]
	if !headed {
		t.vars, t.headed = nil, false
	}
}

// stringList parses an array of strings.
func (s *jsonScanner) stringList() ([]string, error) {
	if err := s.open('['); err != nil {
		return nil, err
	}
	list := []string{}
	done, err := s.empty(']')
	for !done && err == nil {
		var v string
		if v, err = s.internString(); err != nil {
			break
		}
		list = append(list, v)
		done, err = s.closeOrComma(']')
	}
	return list, err
}

// results parses the "results" object, streaming its rows.
func (d *resultsDecoder) results(w *jsonWindow) error {
	if err := w.expect('{'); err != nil {
		return err
	}
	if done, err := w.empty('}'); done || err != nil {
		return err
	}
	bindingsSeen := false
	for {
		name, err := d.member(w, depthResults)
		if err != nil {
			return err
		}
		switch {
		case string(name) != "bindings":
			err = d.skip(w, depthResults)
		case bindingsSeen:
			err = w.errAt(`duplicate "bindings" member`)
		default:
			bindingsSeen = true
			err = d.bindings(w)
		}
		if err != nil {
			return err
		}
		if done, err := w.closeOrComma('}'); done || err != nil {
			return err
		}
	}
}

// bindings parses the array of row objects.
func (d *resultsDecoder) bindings(w *jsonWindow) error {
	if err := w.expect('['); err != nil {
		return err
	}
	if done, err := w.empty(']'); done || err != nil {
		return err
	}
	for {
		if err := d.row(w); err != nil {
			return err
		}
		if done, err := w.closeOrComma(']'); done || err != nil {
			return err
		}
	}
}

// row parses one binding object into a new row of unbound cells.
func (d *resultsDecoder) row(w *jsonWindow) error {
	if err := w.expect('{'); err != nil {
		return err
	}
	t := d.t
	row := len(t.cells)
	t.cells = grow(t.cells, len(t.vars))[:row+len(t.vars)]
	clear(t.cells[row:])
	t.n++
	if done, err := w.empty('}'); done || err != nil {
		return err
	}
	for {
		col, err := d.column(w)
		if err != nil {
			return err
		}
		if col < 0 {
			err = d.skip(w, depthRow)
		} else if t.cells[row+col], err = d.term(w); err != nil {
			err = fmt.Errorf("sparql: row %d var %s: %w", t.n-1, t.vars[col], err)
		}
		if err != nil {
			return err
		}
		if done, err := w.closeOrComma('}'); done || err != nil {
			return err
		}
	}
}

// column reads a binding's key and returns the column it names, or -1 for
// a variable the head did not list.
func (d *resultsDecoder) column(w *jsonWindow) (int, error) {
	name, err := d.member(w, depthRow)
	if err != nil {
		return 0, err
	}
	if j, known := d.varIdx[string(name)]; known {
		return j, nil
	}
	return -1, nil
}

// term reads one binding's term object and returns its table entry: found
// by its raw bytes in the memo, or strictly parsed on first sight and added.
func (d *resultsDecoder) term(w *jsonWindow) (uint32, error) {
	if c, err := w.peek(); err != nil {
		return 0, err
	} else if c != '{' {
		return 0, w.errAt(fmt.Sprintf("expected '{', found %q", c))
	}
	raw, err := w.value()
	if err != nil {
		return 0, err
	}
	tab := d.t
	if i, ok := tab.memo[string(raw)]; ok {
		tab.memoHits++
		return i, nil
	}
	s := w.scanner(raw, depthRow, tab.intern)
	s.unesc = tab.unescape
	t, value, err := s.term()
	if err == nil {
		err = s.finish()
	}
	tab.unescape = s.unesc
	if err != nil {
		return 0, err
	}
	i := uint32(len(tab.terms))
	memoize := len(tab.memo) < 1024 || tab.memoHits >= len(tab.memo)/8
	switch {
	case memoize && value != nil:
		// One allocation serves both: the lexical form is cut out of the
		// memo key, at value's offset in raw.
		key := string(raw)
		at := cap(raw) - cap(value)
		t.Value = key[at : at+len(value)]
		tab.memo[key] = i
	case memoize:
		tab.memo[string(raw)] = i
	case value != nil:
		t.Value = string(value)
	}
	tab.terms = append(grow(tab.terms, 1), t)
	return i, nil
}

// grow makes room for k more elements, at least doubling s when it is full:
// append's own quarter steps would copy a large table five times over, and
// its first steps from a few elements cost a small table an allocation each.
func grow[S ~[]E, E any](s S, k int) S {
	if len(s)+k <= cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), k, 64))
}

// term parses one RDF term object. A lexical form that needs no rewriting
// is returned as value, its bytes in place in the scanner's data, with
// Term.Value left for the caller to fill; otherwise value is nil.
func (s *jsonScanner) term() (t rdf.Term, value []byte, err error) {
	if err := s.open('{'); err != nil {
		return rdf.Term{}, nil, err
	}
	var typ, owned, lang, datatype string
	done, err := s.empty('}')
	for !done && err == nil {
		var name, b []byte
		if name, err = s.key(); err != nil {
			break
		}
		switch string(name) {
		case "type":
			b, err = s.stringBytes()
			switch string(b) { // the known types without allocating
			case "uri":
				typ = "uri"
			case "bnode":
				typ = "bnode"
			case "literal", "typed-literal":
				typ = "literal"
			default:
				typ = string(b)
			}
		case "value":
			b, err = s.stringBytes()
			if value, owned = b, ""; s.rewritten {
				value, owned = nil, string(b) // buf is reused by the next string
			}
		case "xml:lang":
			lang, err = s.internString()
		case "datatype":
			datatype, err = s.internString()
		default:
			err = s.skipValue()
		}
		if err == nil {
			done, err = s.closeOrComma('}')
		}
	}
	if err != nil {
		return rdf.Term{}, nil, err
	}
	switch typ {
	case "uri":
		return rdf.NewIRI(owned), value, nil
	case "bnode":
		return rdf.NewBlank(owned), value, nil
	case "literal":
		switch {
		case lang != "":
			return rdf.NewLangLiteral(owned, lang), value, nil
		case datatype != "":
			return rdf.NewTypedLiteral(owned, datatype), value, nil
		default:
			return rdf.NewLiteral(owned), value, nil
		}
	}
	return rdf.Term{}, nil, fmt.Errorf("unknown term type %q", typ)
}
