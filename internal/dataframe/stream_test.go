package dataframe

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
)

// WriteRow writes one row through the table-shaped path, as a one-row
// table of its own, for the tests that build their rows as terms.
func (s *CSVStream) WriteRow(row []rdf.Term) error {
	terms := append([]rdf.Term{{}}, row...)
	cells := make([]uint32, len(row))
	for j, t := range row {
		if t.IsBound() {
			cells[j] = uint32(j + 1)
		}
	}
	_, err := s.WriteRows(terms, cells, 1)
	return err
}

// The streaming encoder must produce exactly the bytes WriteCSV would,
// while never buffering more than roughly one chunk.
func TestCSVStreamMatchesWriteCSV(t *testing.T) {
	const rows = 500
	df := New("s", "v")
	var stream bytes.Buffer
	cs := NewCSVStream(&stream, 256, false)
	if err := cs.WriteHeader([]string{"s", "v"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://ex/s%04d", i)),
			rdf.NewLiteral(strings.Repeat("x", 20)),
		}
		df.Append(row)
		if err := cs.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := df.WriteCSV(&want, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), want.Bytes()) {
		t.Fatalf("streamed CSV differs from materialized CSV (%d vs %d bytes)",
			stream.Len(), want.Len())
	}
	if cs.Rows() != rows {
		t.Fatalf("Rows() = %d, want %d", cs.Rows(), rows)
	}
	// ~13KB of output went through a 256-byte chunk buffer: the peak must
	// stay near one chunk (a chunk plus at most one row), not grow with the
	// row count.
	if peak := cs.PeakBufferBytes(); peak > 2*256 {
		t.Fatalf("peak buffer %d bytes exceeds 2 chunks; encoder is materializing", peak)
	}
}

func TestCSVStreamNullsAndFullForm(t *testing.T) {
	var plain, full bytes.Buffer
	row := []rdf.Term{rdf.NewIRI("http://ex/a"), {}, rdf.NewLiteral("v")}
	for _, tc := range []struct {
		buf      *bytes.Buffer
		fullForm bool
	}{{&plain, false}, {&full, true}} {
		cs := NewCSVStream(tc.buf, 0, tc.fullForm)
		if err := cs.WriteHeader([]string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
		if err := cs.WriteRow(row); err != nil {
			t.Fatal(err)
		}
		if err := cs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := plain.String(); got != "a,b,c\nhttp://ex/a,,v\n" {
		t.Fatalf("plain form: %q", got)
	}
	if got := full.String(); !strings.Contains(got, "<http://ex/a>") {
		t.Fatalf("full form lacks N-Triples syntax: %q", got)
	}
	// The full form must round-trip through ReadCSV.
	df, err := ReadCSV(&full)
	if err != nil {
		t.Fatal(err)
	}
	if df.Len() != 1 || df.Cell(0, "b").IsBound() {
		t.Fatalf("round trip lost shape: %d rows", df.Len())
	}
}

func TestCSVStreamFlushHook(t *testing.T) {
	var buf bytes.Buffer
	flushes := 0
	cs := NewCSVStream(&buf, 64, false)
	cs.SetFlushHook(func() error { flushes++; return nil })
	if err := cs.WriteHeader([]string{"s"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := cs.WriteRow([]rdf.Term{rdf.NewIRI("http://ex/longish-subject")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	if flushes < 2 {
		t.Fatalf("flush hook fired %d times, want at least once per drained chunk", flushes)
	}
}

// failAfter accepts its first writes, then fails every write.
type failAfter struct{ writes int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes == 0 {
		return 0, errors.New("disk full")
	}
	f.writes--
	return len(p), nil
}

// WriteRows reports the rows it wrote before a chunk failed to drain, and
// Rows agrees.
func TestCSVStreamWriteRowsCountsRowsBeforeAnError(t *testing.T) {
	terms := []rdf.Term{{}, rdf.NewIRI("http://ex/longish-subject")}
	cells := make([]uint32, 100)
	for i := range cells {
		cells[i] = 1
	}
	cs := NewCSVStream(&failAfter{writes: 2}, 64, false)
	if err := cs.WriteHeader([]string{"s"}); err != nil {
		t.Fatal(err)
	}
	n, err := cs.WriteRows(terms, cells, len(cells))
	if err == nil || n == 0 || n >= len(cells) || n != cs.Rows() {
		t.Fatalf("WriteRows = %d, %v with Rows() = %d; want a count short of %d, the error, and Rows() the same", n, err, cs.Rows(), len(cells))
	}
}

// In full mode a term is rendered in N-Triples syntax once per table:
// 10,000 cells over 100 terms allocate what 100 cells over them do, one
// rendering per term.
func TestCSVStreamRendersEachTermOnce(t *testing.T) {
	terms := []rdf.Term{{}}
	for i := range 100 {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://ex/term%d", i))) // one allocation to render
	}
	allocs := func(n int) float64 {
		cells := make([]uint32, n)
		for i := range cells {
			cells[i] = uint32(1 + i%100)
		}
		cs := NewCSVStream(io.Discard, 0, true)
		if err := cs.WriteHeader([]string{"x"}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			cs.table = nil // as if a new table: every term is rendered again
			if _, err := cs.WriteRows(terms, cells, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(100), allocs(10_000); many != few || many > 100 {
		t.Errorf("10,000 cells over 100 terms allocate %v times, 100 cells %v: want at most one rendering per term", many, few)
	}
}

// csvTable decodes fuzz input into a term table and rows over it. The
// values are split at NUL into terms of every kind (a plain, typed and
// language-tagged literal, an IRI, a blank node in turn); the table holds
// the null and each term, and each cell is a byte of the input taken
// modulo the table, so terms repeat and cells are unbound.
func csvTable(values string, width int) (cols []string, terms []rdf.Term, cells []uint32, rows int) {
	pieces := strings.Split(values, "\x00")
	terms = []rdf.Term{{}}
	for i, v := range pieces {
		switch i % 5 {
		case 0:
			terms = append(terms, rdf.NewLiteral(v))
		case 1:
			terms = append(terms, rdf.NewIRI(v))
		case 2:
			terms = append(terms, rdf.NewTypedLiteral(v, rdf.XSDInteger))
		case 3:
			terms = append(terms, rdf.NewLangLiteral(v, "en"))
		default:
			terms = append(terms, rdf.NewBlank(v))
		}
	}
	for j := range width {
		cols = append(cols, pieces[j%len(pieces)])
	}
	rows = len(pieces) + len(values)%3
	cells = make([]uint32, rows*width)
	for k := range cells {
		if len(values) > 0 {
			cells[k] = uint32(values[(k*7)%len(values)]) % uint32(len(terms))
		} else {
			cells[k] = uint32(k) % uint32(len(terms))
		}
	}
	return cols, terms, cells, rows
}

// A CSVStream writes byte for byte what encoding/csv writes for the same
// records — the header, then each row's fields (plain values, or N-Triples
// syntax when full), nulls empty — at a one-byte chunk and the default
// chunk alike, and DataFrame.WriteCSV writes the same bytes over its table.
// Its seed corpus (testdata/fuzz/FuzzCSVStream) holds every field the
// quoting rule singles out: commas, quotes, CR, LF, leading space, tab and
// Unicode spaces, `\.`, empty literals and unbound cells, at widths 1 to 4.
func FuzzCSVStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, values string, width uint8) {
		cols, terms, cells, rows := csvTable(values, 1+int(width%4))
		header := func(cols []string) []byte {
			var b bytes.Buffer
			cw := csv.NewWriter(&b)
			if err := cw.Write(cols); err != nil {
				t.Fatal(err)
			}
			cw.Flush()
			return b.Bytes()
		}
		for _, full := range []bool{false, true} {
			var data bytes.Buffer
			cw := csv.NewWriter(&data)
			record := make([]string, len(cols))
			for i := range rows {
				for j, c := range cells[i*len(cols) : (i+1)*len(cols)] {
					switch term := terms[c]; {
					case !term.IsBound():
						record[j] = ""
					case full:
						record[j] = term.String()
					default:
						record[j] = term.Value
					}
				}
				if err := cw.Write(record); err != nil {
					t.Fatal(err)
				}
			}
			cw.Flush()
			want := append(header(cols), data.Bytes()...)
			for _, chunk := range []int{1, 0} {
				var got bytes.Buffer
				cs := NewCSVStream(&got, chunk, full)
				if err := cs.WriteHeader(cols); err != nil {
					t.Fatal(err)
				}
				// Two runs over the one table: the quoting memo carries over.
				half := rows / 2
				if _, err := cs.WriteRows(terms, cells[:half*len(cols)], half); err != nil {
					t.Fatal(err)
				}
				if _, err := cs.WriteRows(terms, cells[half*len(cols):], rows-half); err != nil {
					t.Fatal(err)
				}
				if err := cs.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("full=%v chunk=%d:\n got %q\nwant %q", full, chunk, got.Bytes(), want)
				}
				if cs.Rows() != rows {
					t.Fatalf("Rows() = %d, want %d", cs.Rows(), rows)
				}
			}
			unique := make([]string, len(cols))
			for j, c := range cols {
				unique[j] = fmt.Sprintf("c%d:%s", j, c)
			}
			var fromFrame bytes.Buffer
			if err := FromTable(unique, terms, cells, rows).WriteCSV(&fromFrame, full); err != nil {
				t.Fatal(err)
			}
			if wantFrame := append(header(unique), data.Bytes()...); !bytes.Equal(fromFrame.Bytes(), wantFrame) {
				t.Fatalf("full=%v: WriteCSV\n got %q\nwant %q", full, fromFrame.Bytes(), wantFrame)
			}
		}
	})
}
