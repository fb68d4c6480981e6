package dataframe

import (
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"rdfframes/internal/rdf"
)

// Streaming CSV export: a CSVStream takes a header and then runs of whole
// rows in the dictionary-encoded layout every result and frame shares —
// cells indexing one term table whose entry 0 is the null — and encodes
// them into bounded chunks that are handed to the destination as they fill,
// so the producer never materializes the whole encoded frame. The bytes are
// exactly those encoding/csv writes for the same records.

// DefaultChunkBytes is the chunk threshold used when a CSVStream is
// created with a non-positive chunk size.
const DefaultChunkBytes = 64 << 10

// A term's quoting, decided once per term of a table.
const (
	undecided byte = iota
	plain
	quoted
)

// CSVStream encodes rows as CSV into an internal buffer and drains it to
// the destination every time it crosses the chunk threshold, so peak
// buffered memory stays near one chunk regardless of result size.
// PeakBufferBytes reports the high-water mark, which is how the bench
// harness asserts the bound. Each distinct term's field is scanned for
// quoting, and in full mode rendered in N-Triples syntax, once per table,
// the first time a cell names it. Not safe for concurrent use.
type CSVStream struct {
	dst        io.Writer
	buf        []byte
	chunkBytes int
	full       bool
	width      int
	table      []rdf.Term // the term table quote and nt describe
	quote      []byte     // per entry of table: undecided, plain or quoted
	nt         []string   // full mode, per entry of table: its N-Triples form, "" until rendered
	sized      bool       // the buffer has been sized once by reserve
	rows       int
	peak       int
	onFlush    func() error
}

// NewCSVStream returns a streaming CSV writer over dst that drains its
// buffer every chunkBytes (<= 0 uses DefaultChunkBytes). Like
// DataFrame.WriteCSV, full selects N-Triples term syntax per cell instead
// of plain values; nulls are empty cells either way.
func NewCSVStream(dst io.Writer, chunkBytes int, full bool) *CSVStream {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &CSVStream{dst: dst, chunkBytes: chunkBytes, full: full}
}

// SetFlushHook registers fn to run after each chunk lands on the
// destination — typically an http.Flusher push so chunks reach the client
// as they are produced.
func (s *CSVStream) SetFlushHook(fn func() error) { s.onFlush = fn }

// WriteHeader writes the CSV header row and fixes the row width. Must be
// called once, first.
func (s *CSVStream) WriteHeader(cols []string) error {
	s.width = len(cols)
	for j, c := range cols {
		if j > 0 {
			s.buf = append(s.buf, ',')
		}
		s.buf = appendField(s.buf, c, needsQuotes(c))
	}
	s.buf = append(s.buf, '\n')
	return s.drainIfFull()
}

// WriteRows encodes rows whole rows: rows × the header's width cells, row
// after row, each an index into terms, whose entry 0 is the null. Every
// call of one stream passes the same table; a call with another table
// starts its quoting memo afresh. It returns the number of rows written
// before an error, as io.Writer does bytes. The stream does not retain
// cells.
func (s *CSVStream) WriteRows(terms []rdf.Term, cells []uint32, rows int) (int, error) {
	if len(terms) != len(s.table) || len(terms) > 0 && &terms[0] != &s.table[0] {
		s.table = terms
		s.quote = zeroed(s.quote, len(terms))
		if s.full {
			s.nt = zeroed(s.nt, len(terms))
		}
	}
	for i := 0; i < rows; i++ {
		start := len(s.buf)
		for j, c := range cells[i*s.width : (i+1)*s.width] {
			if j > 0 {
				s.buf = append(s.buf, ',')
			}
			if c == 0 {
				continue // a null is an empty field
			}
			field := terms[c].Value
			if s.full {
				if s.nt[c] == "" { // no bound term renders empty
					s.nt[c] = terms[c].String()
				}
				field = s.nt[c]
			}
			q := s.quote[c]
			if q == undecided {
				q = plain
				if needsQuotes(field) {
					q = quoted
				}
				s.quote[c] = q
			}
			s.buf = appendField(s.buf, field, q == quoted)
		}
		s.buf = append(s.buf, '\n')
		if i == 0 {
			s.reserve((len(s.buf) - start) * (rows - 1))
		}
		if err := s.drainIfFull(); err != nil {
			return i, err
		}
		s.rows++
	}
	return rows, nil
}

// zeroed returns s at length n and zeroed, in its own array if that is
// large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reserve makes room for n more bytes, up to one chunk and the row that
// crosses it. The first time it grows the buffer it takes what is asked
// for, so a short result keeps a short buffer; after that a stream is
// long and the buffer takes its whole bound at once, where growing by
// append would allocate several times that on the way.
func (s *CSVStream) reserve(n int) {
	bound := s.chunkBytes + s.chunkBytes/4
	want := min(len(s.buf)+n, bound)
	if want <= cap(s.buf) {
		return
	}
	if s.sized {
		want = bound
	}
	s.sized = true
	s.buf = append(make([]byte, 0, want), s.buf...)
}

// Flush drains everything still buffered to the destination. Call once
// after the last row.
func (s *CSVStream) Flush() error { return s.drain() }

// Rows returns how many data rows have been written (header excluded).
func (s *CSVStream) Rows() int { return s.rows }

// PeakBufferBytes returns the largest encoding buffer observed: the
// writer's actual memory high-water mark, bounded by one chunk plus one
// encoded row.
func (s *CSVStream) PeakBufferBytes() int { return s.peak }

func (s *CSVStream) drainIfFull() error {
	s.peak = max(s.peak, len(s.buf))
	if len(s.buf) < s.chunkBytes {
		return nil
	}
	return s.drain()
}

func (s *CSVStream) drain() error {
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.dst.Write(s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	if s.onFlush != nil {
		return s.onFlush()
	}
	return nil
}

// needsQuotes is encoding/csv's rule for a comma-separated field: a
// non-empty field is quoted when it is `\.`, holds a comma, a quote, CR or
// LF, or begins with a Unicode space.
func needsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == ',' || c == '"' || c == '\r' || c == '\n' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendField appends field, quoted with its quotes doubled when quote is
// set; CR and LF stay as they are inside the quotes.
func appendField(buf []byte, field string, quote bool) []byte {
	if !quote {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		buf = append(buf, field[:i+1]...)
		buf = append(buf, '"')
		field = field[i+1:]
	}
	buf = append(buf, field...)
	return append(buf, '"')
}
