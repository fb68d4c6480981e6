package sparql

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"rdfframes/internal/rdf"
)

// codecResults builds a result of rows×cols cells drawing from distinct
// different terms of every kind (0 = every cell its own term), with unbound
// cells and strings that need escaping mixed in.
func codecResults(rows, cols, distinct int, seed int64) *Results {
	rng := rand.New(rand.NewSource(seed))
	res := &Results{Rows: make([][]rdf.Term, rows)}
	for j := 0; j < cols; j++ {
		res.Vars = append(res.Vars, fmt.Sprintf("v%d", j))
	}
	term := func(k int) rdf.Term {
		switch k % 6 {
		case 0:
			return rdf.NewIRI(fmt.Sprintf("http://example.org/resource/%d", k))
		case 1:
			return rdf.NewInteger(int64(k))
		case 2:
			return rdf.NewLangLiteral(fmt.Sprintf("Straße \"%d\"\n", k), "de")
		case 3:
			return rdf.NewBlank(fmt.Sprintf("b%d", k))
		case 4:
			return rdf.NewLiteral(fmt.Sprintf("tab\there\\%d\x01 世界 😀", k))
		default:
			return rdf.NewTypedLiteral(fmt.Sprintf("%d.5", k), rdf.XSDDecimal)
		}
	}
	next := 0
	for i := range res.Rows {
		row := make([]rdf.Term, cols)
		for j := range row {
			switch {
			case distinct == 0:
				row[j] = term(next)
				next++
			case rng.Intn(11) == 0:
				// unbound
			default:
				row[j] = term(rng.Intn(distinct))
			}
		}
		res.Rows[i] = row
	}
	return res
}

// TestEncoderMatchesReference pins the streaming encoder, over every kind
// of window, to the whole-body encoder it replaced.
func TestEncoderMatchesReference(t *testing.T) {
	for _, tc := range []struct{ rows, cols, distinct int }{
		{0, 3, 5}, {1, 1, 1}, {7, 0, 1}, {300, 4, 17}, {300, 4, 0},
		{5000, 6, 40}, // several 32 KiB chunks
	} {
		res := codecResults(tc.rows, tc.cols, tc.distinct, 1)
		c := compactOf(res)
		windows := [][2]int{{0, tc.rows}, {0, 0}, {tc.rows, tc.rows}, {tc.rows / 3, tc.rows / 2}, {tc.rows / 2, tc.rows}}
		for _, win := range windows {
			want := referenceMarshalJSON(&Results{Vars: res.Vars, Rows: res.Rows[win[0]:win[1]]})
			var streamed bytes.Buffer
			if err := c.writeJSON(&streamed, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(streamed.Bytes(), want) {
				t.Fatalf("%+v window %v: streamed bytes differ from the reference encoder", tc, win)
			}
			if got := c.marshalJSON(win[0], win[1]); !bytes.Equal(got, want) {
				t.Fatalf("%+v window %v: marshalled bytes differ from the reference encoder", tc, win)
			}
			view := c.results(win[0], win[1])
			if !sameResults(view, &Results{Vars: res.Vars, Rows: res.Rows[win[0]:win[1]]}) {
				t.Fatalf("%+v window %v: results view differs from its source rows", tc, win)
			}
		}
	}
	// Short rows read as unbound past their end; invalid UTF-8 is replaced.
	ragged := &Results{Vars: []string{"a", "b"}, Rows: [][]rdf.Term{
		{rdf.NewLiteral("\xff\xfe")}, {}, {rdf.NewIRI("http://x"), rdf.NewBlank("b"), rdf.NewLiteral("dropped")},
	}}
	got, err := ragged.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceMarshalJSON(ragged); !bytes.Equal(got, want) {
		t.Fatalf("ragged rows:\n got %s\nwant %s", got, want)
	}
}

// failAfter fails the write that would take it past n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestEncoderStopsOnWriteError: a dead client ends the encode at the chunk
// that found out, and the pooled encoder is still good afterwards.
func TestEncoderStopsOnWriteError(t *testing.T) {
	c := compactOf(codecResults(5000, 6, 40, 1))
	if err := c.writeJSON(&failAfter{n: 100 << 10}, 0, c.n); err != io.ErrClosedPipe {
		t.Fatalf("err = %v, want the writer's", err)
	}
	small := codecResults(3, 2, 2, 2)
	if got, _ := small.MarshalJSON(); !bytes.Equal(got, referenceMarshalJSON(small)) {
		t.Fatal("encoder reused after a failed write produced different bytes")
	}
}

// decodeSeeds are the documents the decoder's unit tests exercise — the
// escape, surrogate, key-order, unknown-member, typed-literal, truncation
// and trailing-data cases — plus the rules the streaming rewrite added.
var decodeSeeds = []string{
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"a\"b\\c\/d\tx\b\f\n\r"}}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"é世😀 \ud800x \udc00 \ud800A \ud800😀"}}]}}`,
	`{"results":{"bindings":[{"x":{"type":"uri","value":"http://a"}}]},"head":{"vars":["x"]}}`,
	`{"results":{"bindings":[{"x":{"type":"uri","value":"http://a"}}]}}`,
	`{"head":{"vars":["x"],"link":["http://meta"]},"results":{"distinct":false,"bindings":[{"x":{"type":"literal","value":"v","extra":[1,{"y":null}]},"unprojected":{"type":"uri","value":"http://z"}}]}}`,
	`{"head":{"vars":["n"]},"results":{"bindings":[{"n":{"type":"typed-literal","value":"5","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
	`{"head":{"vars":["s","o"]},"results":{"bindings":[{"s":{"type":"bnode","value":"b0"},"o":{"type":"literal","value":"hallo","xml:lang":"de"}},{"o":{"type":"uri","value":"http://ex/c"}},{}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"weird","value":"v"}}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":`,
	`{"head":{"vars":["x"]}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[]}} trailing`,
	`{"head":{"vars":["x"]},"results":{"bindings":[]},"head":{"vars":["y"]}}`,
	`{"head":{"vars":["x","x"]},"results":{"bindings":[{"x":{"type":"uri","value":"1"},"x":{"type":"uri","value":"2"}}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"1","value":"2"}},{"x":null}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"y":[1.5e+3,-0,01]}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"` + "\xff\xc0ok" + `"}}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"` + "\x96" + `\b0000"}}]}}`,
	`{"results":}`,
	` { } `,
	`{"head":null}`,
	`[]`,
}

// checkTable fails unless t is a well-formed table: n rows of len(vars)
// cells, each indexing terms, whose entry 0 is the unbound term.
func checkTable(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.terms) == 0 || tab.terms[0].IsBound() || len(tab.cells) != tab.n*len(tab.vars) {
		t.Fatalf("%d cells, %d terms is not a table of %d rows by %d columns", len(tab.cells), len(tab.terms), tab.n, len(tab.vars))
	}
	for k, c := range tab.cells {
		if int(c) >= len(tab.terms) {
			t.Fatalf("cell %d indexes entry %d of %d", k, c, len(tab.terms))
		}
	}
}

// FuzzReadJSON checks the streaming decoder against the encoding/json
// reference: the same documents accepted, and the same terms in every cell
// of the table, expanded to rows, whether the body arrives whole or a byte
// at a time. A table accumulates: the same body read twice holds its rows
// twice, and a rejected body leaves the rows a table already held as they
// were.
func FuzzReadJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	if body, err := codecResults(40, 3, 9, 3).MarshalJSON(); err == nil {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceReadJSON(data)
		whole := NewTable()
		err := whole.decode(&jsonWindow{buf: data, end: len(data)})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", err, wantErr)
		}
		streamed := NewTable()
		serr := streamed.ReadJSON(iotest.OneByteReader(bytes.NewReader(data)))
		if (serr == nil) != (err == nil) {
			t.Fatalf("whole-body error %v, byte-at-a-time error %v", err, serr)
		}
		if err != nil {
			held := NewTable()
			if err := held.ReadJSON(strings.NewReader(decodeSeeds[0])); err != nil {
				t.Fatal(err)
			}
			before := held.Results()
			if held.ReadJSON(bytes.NewReader(data)) == nil {
				t.Fatal("a rejected body was accepted by a table holding rows")
			}
			checkTable(t, held)
			if !sameResults(held.Results(), before) {
				t.Fatalf("a rejected body changed the rows from %+v to %+v", *before, *held.Results())
			}
			return
		}
		for name, tab := range map[string]*Table{"whole": whole, "byte-at-a-time": streamed} {
			checkTable(t, tab)
			if got := tab.Results(); !sameResults(got, want) {
				t.Fatalf("%s decoded %+v, reference decoded %+v", name, *got, *want)
			}
		}
		if err := whole.ReadJSON(bytes.NewReader(data)); err != nil {
			t.Fatalf("the body read a second time: %v", err)
		}
		checkTable(t, whole)
		twice := &Results{Vars: want.Vars, Rows: append(want.Rows, want.Rows...)}
		if got := whole.Results(); !sameResults(got, twice) {
			t.Fatalf("the body read twice decoded %+v, want its rows twice", *got)
		}
	})
}

// TestTableMemoStops: past 1,024 entries with under one hit per 8, the memo
// takes no new terms, and a term it does not hold takes a table entry per
// cell; once the hits catch up it grows again. The memo carries over from
// one body to the next.
func TestTableMemoStops(t *testing.T) {
	body, err := codecResults(1000, 3, 0, 4).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	for _, want := range []struct{ memo, hits, terms int }{
		{1024, 0, 1 + 3000},           // 3,000 distinct terms, no hits
		{3000, 1024, 1 + 3000 + 1976}, // the first 1,024 hit, and the memo grows
	} {
		if err := tab.ReadJSON(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		checkTable(t, tab)
		if len(tab.memo) != want.memo || tab.memoHits != want.hits || len(tab.terms) != want.terms {
			t.Fatalf("after %d rows: %d memo entries, %d hits, %d table entries; want %+v",
				tab.n, len(tab.memo), tab.memoHits, len(tab.terms), want)
		}
	}
}

// TestReadJSONRejectsRepeatedStructuralMembers pins a decision the streaming
// decoder made: "head", "vars", "results" and "bindings" may each appear once
// per object. The whole-body decoder it replaced let the last one win; a
// decoder that hands rows out as they arrive cannot take them back when a
// second "bindings" turns up, and the format never repeats these members.
// Repeats the decoder can resolve as it goes — a binding named twice in a
// row, a member named twice in a term — still resolve to the last.
func TestReadJSONRejectsRepeatedStructuralMembers(t *testing.T) {
	for member, doc := range map[string]string{
		"head":     `{"head":{"vars":["x"]},"results":{"bindings":[]},"head":{"vars":["y"]}}`,
		"vars":     `{"head":{"vars":["x"],"vars":["y"]},"results":{"bindings":[]}}`,
		"results":  `{"head":{"vars":["x"]},"results":{"bindings":[]},"results":{"bindings":[]}}`,
		"bindings": `{"head":{"vars":["x"]},"results":{"bindings":[],"bindings":[]}}`,
		// "results" ahead of "head" waits in a buffer; the rule is the same.
		"results ": `{"results":{"bindings":[]},"results":{"bindings":[]},"head":{"vars":["x"]}}`,
	} {
		want := fmt.Sprintf("duplicate %q member", strings.TrimSpace(member))
		var whole Results
		if err := whole.UnmarshalJSON([]byte(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("UnmarshalJSON(%s) = %v, want an error naming the %s", doc, err, want)
		}
		if _, err := ReadJSON(iotest.OneByteReader(strings.NewReader(doc))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadJSON(%s) = %v, want an error naming the %s", doc, err, want)
		}
	}
	last, err := ReadJSON(strings.NewReader(
		`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"1"},"x":{"type":"uri","value":"2","value":"3"}}]}}`))
	if err != nil || last.Rows[0][0] != rdf.NewIRI("3") {
		t.Fatalf("repeated binding and term members: got %+v, %v; want the last of each", last, err)
	}
}

// randomChunks returns at most a random 1..max bytes per Read.
type randomChunks struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *randomChunks) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// TestReadJSONChunkBoundaries: wherever the reads cut the body — inside an
// escape, a key, a term that outgrows the window — the decode is the same.
func TestReadJSONChunkBoundaries(t *testing.T) {
	res := codecResults(400, 5, 23, 7)
	// One value larger than the window, so the window has to grow around it.
	res.Rows[200][2] = rdf.NewLiteral(strings.Repeat("long \\ \"quoted\" ✓ ", 3*decodeWindowBytes/20))
	body, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want Results
	if err := want.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	if !sameResults(&want, res) {
		t.Fatal("round trip changed the results")
	}
	check := func(name string, rd io.Reader) {
		t.Helper()
		got, err := ReadJSON(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameResults(got, &want) {
			t.Fatalf("%s: decode differs from the whole-body decode", name)
		}
	}
	check("one byte", iotest.OneByteReader(bytes.NewReader(body)))
	check("half reads", iotest.HalfReader(bytes.NewReader(body)))
	check("data with EOF", iotest.DataErrReader(bytes.NewReader(body)))
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("random chunks, seed %d", seed),
			&randomChunks{r: bytes.NewReader(body), rng: rng, max: 1 + rng.Intn(5000)})
	}
	// A body cut anywhere is an error, never a short result.
	for _, cut := range []int{1, len(body) / 3, len(body) - 1} {
		if _, err := ReadJSON(iotest.OneByteReader(bytes.NewReader(body[:cut]))); err == nil {
			t.Fatalf("body cut at %d of %d bytes decoded without error", cut, len(body))
		}
	}
	// The reader's own error is reported, not dressed up as bad JSON.
	_, err = ReadJSON(iotest.TimeoutReader(bytes.NewReader(body)))
	if err == nil || !strings.Contains(err.Error(), iotest.ErrTimeout.Error()) {
		t.Fatalf("reader failure surfaced as %v", err)
	}
}

// TestDecodeAllocsFollowDistinctTerms pins the decoder's allocation shape,
// decoding into a reused table as Select does: more cells over the same
// terms cost next to nothing, more distinct terms cost a few allocations
// each. The window pool is warmed first, and neither a collection nor a
// second P may empty it mid-measurement (the collector is off, GOMAXPROCS
// 1), so no run pays for a window the pool lost.
func TestDecodeAllocsFollowDistinctTerms(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(rows, distinct int) (bytesPerRun, allocsPerRun float64) {
		body, err := codecResults(rows, 6, distinct, 5).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		tab := NewTable()
		decode := func() {
			tab.Reset()
			if err := tab.ReadJSON(bytes.NewReader(body)); err != nil || tab.Len() != rows {
				t.Fatalf("%d rows, %v", tab.Len(), err)
			}
		}
		decode()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	baseBytes, base := measure(6000, 60)
	moreCellsBytes, moreCells := measure(12000, 60)
	_, moreTerms := measure(6000, 600)
	if perCell := (moreCellsBytes - baseBytes) / 36000; perCell > 8 {
		t.Errorf("36,000 more cells over the same 60 terms cost %.1f B each (%.0f → %.0f B); want at most 8", perCell, baseBytes, moreCellsBytes)
	}
	if extra := moreCells - base; extra > 4 {
		t.Errorf("36,000 more cells over the same 60 terms cost %.0f more allocations (%.0f → %.0f)", extra, base, moreCells)
	}
	if perTerm := (moreTerms - base) / 540; perTerm < 1 || perTerm > 6 {
		t.Errorf("540 more distinct terms cost %.1f allocations each (%.0f → %.0f); want a few per term", perTerm, base, moreTerms)
	}
	if base > 600 {
		t.Errorf("decoding 36,000 cells over 60 terms took %.0f allocations", base)
	}
	t.Logf("6,000 rows over 60 terms: %.0f B in %.0f allocations; 12,000 rows: %.0f B in %.0f; 6,000 rows over 600 terms: %.0f allocations",
		baseBytes, base, moreCellsBytes, moreCells, moreTerms)
}

// Per-layer codec benchmarks (ROADMAP item 1): 50,000 rows × 6 columns,
// once over 600 terms — the shape of the paper's large results, where each
// term repeats tens of times — and once with every cell its own term.
func benchmarkShapes() map[string]*Results {
	return map[string]*Results{
		"lowcard":  codecResults(50000, 6, 600, 9),
		"distinct": codecResults(50000, 6, 0, 9),
	}
}

var benchSink int

func BenchmarkEncodeJSON(b *testing.B) {
	for name, res := range benchmarkShapes() {
		c := compactOf(res)
		var size byteCounter
		if err := c.writeJSON(&size, 0, c.n); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var w byteCounter
				if err := c.writeJSON(&w, 0, c.n); err != nil {
					b.Fatal(err)
				}
				benchSink += int(w)
			}
		})
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	for name, res := range benchmarkShapes() {
		body, err := res.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := ReadJSON(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(got.Rows)
			}
		})
	}
}
