package sparql

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// tableBody returns rows [lo, hi) of c as a table body.
func tableBody(t testing.TB, c *compactResult, lo, hi int) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := c.writeTable(&body, lo, hi); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// sameTableState reports whether two tables hold the same columns, rows,
// cells and terms.
func sameTableState(a, b *Table) bool {
	return slices.Equal(a.vars, b.vars) && a.headed == b.headed && a.n == b.n &&
		slices.Equal(a.cells, b.cells) && slices.Equal(a.terms, b.terms)
}

// snapshot copies what sameTableState compares.
func snapshot(t *Table) *Table {
	return &Table{compactResult: compactResult{vars: slices.Clone(t.vars), terms: slices.Clone(t.terms),
		cells: slices.Clone(t.cells), n: t.n}, headed: t.headed}
}

// TestTableBodyRoundTrip: every window of a result, written as a table body,
// reads back as that window's rows however the reads cut the body. A
// window carries only the terms its cells use; a body cut anywhere is an
// error that leaves the table as it was; and an encoder whose writer failed
// still encodes the next page right.
func TestTableBodyRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, cols, distinct int }{
		{0, 3, 5}, {1, 1, 1}, {7, 0, 1}, {300, 4, 17}, {300, 4, 0},
		{5000, 6, 40}, // several 32 KiB chunks
	} {
		res := codecResults(tc.rows, tc.cols, tc.distinct, 1)
		c := compactOf(res)
		vars := append([]string{}, res.Vars...) // a body without columns reads as an empty list
		windows := [][2]int{{0, tc.rows}, {0, 0}, {tc.rows, tc.rows}, {tc.rows / 3, tc.rows / 2}, {tc.rows / 2, tc.rows}}
		for _, win := range windows {
			body := tableBody(t, c, win[0], win[1])
			want := &Results{Vars: vars, Rows: res.Rows[win[0]:win[1]]}
			rng := rand.New(rand.NewSource(int64(len(body))))
			for name, rd := range map[string]io.Reader{
				"whole":         bytes.NewReader(body),
				"one byte":      iotest.OneByteReader(bytes.NewReader(body)),
				"half reads":    iotest.HalfReader(bytes.NewReader(body)),
				"data with EOF": iotest.DataErrReader(bytes.NewReader(body)),
				"random chunks": &randomChunks{r: bytes.NewReader(body), rng: rng, max: 1 + rng.Intn(5000)},
			} {
				tab := NewTable()
				if err := tab.ReadTable(rd); err != nil {
					t.Fatalf("%+v window %v, %s: %v", tc, win, name, err)
				}
				checkTable(t, tab)
				if !sameResults(tab.Results(), want) {
					t.Fatalf("%+v window %v, %s: the rows differ from the window's", tc, win, name)
				}
				if used := distinctBound(want); len(tab.terms)-1 != used {
					t.Fatalf("%+v window %v: %d terms for %d used", tc, win, len(tab.terms)-1, used)
				}
			}
			held := NewTable()
			if err := held.ReadTable(bytes.NewReader(tableBody(t, compactOf(codecResults(5, tc.cols, 3, 2)), 0, 5))); err != nil {
				t.Fatal(err)
			}
			before := snapshot(held)
			for _, cut := range []int{0, 1, len(body) / 3, len(body) - 1} {
				if cut >= len(body) {
					continue
				}
				if err := held.ReadTable(iotest.OneByteReader(bytes.NewReader(body[:cut]))); err == nil {
					t.Fatalf("%+v window %v: the body cut at %d of %d bytes was read", tc, win, cut, len(body))
				}
				if !sameTableState(held, before) {
					t.Fatalf("%+v window %v: the body cut at %d changed the table", tc, win, cut)
				}
			}
			if err := held.ReadTable(bytes.NewReader(append(body, 0))); err == nil || !sameTableState(held, before) {
				t.Fatalf("%+v window %v: a trailing byte was read (%v) or changed the table", tc, win, err)
			}
		}
	}
	c := compactOf(codecResults(5000, 6, 40, 1))
	if err := c.writeTable(&failAfter{n: 40 << 10}, 100, 4000); err != io.ErrClosedPipe {
		t.Fatalf("err = %v, want the writer's", err)
	}
	small := codecResults(30, 2, 7, 2)
	tab := NewTable()
	if err := tab.ReadTable(bytes.NewReader(tableBody(t, compactOf(small), 10, 20))); err != nil {
		t.Fatal(err)
	}
	if !sameResults(tab.Results(), &Results{Vars: small.Vars, Rows: small.Rows[10:20]}) {
		t.Fatal("an encoder reused after a failed write renumbered the next page wrong")
	}
}

// distinctBound counts the distinct bound terms of res.
func distinctBound(res *Results) int {
	seen := map[any]bool{}
	for _, row := range res.Rows {
		for _, term := range row {
			if term.IsBound() {
				seen[term] = true
			}
		}
	}
	return len(seen)
}

// TestWriteTablePageAllocs: a page of a result with a large term table costs
// nothing to renumber once the encoders' free list is warm — no scratch the
// size of the result's term table per page.
func TestWriteTablePageAllocs(t *testing.T) {
	c := compactOf(codecResults(20000, 3, 0, 1)) // 60,000 terms
	page := func() {
		if err := c.writeTable(io.Discard, 10000, 10500); err != nil {
			t.Fatal(err)
		}
	}
	page()
	if allocs := testing.AllocsPerRun(20, page); allocs > 0 {
		t.Errorf("a 500-row page of a 60,000-term result took %.0f allocations", allocs)
	}
}

// TestWriteTableConcurrently: encoders go back and forth through the free
// list between goroutines paging through different results, and every page
// still reads back as its rows.
func TestWriteTableConcurrently(t *testing.T) {
	results := []*Results{codecResults(600, 3, 0, 1), codecResults(900, 4, 30, 2)}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := results[g%2]
			c := compactOf(res)
			for lo := g; lo < len(res.Rows); lo += 97 {
				hi := min(lo+50, len(res.Rows))
				var body bytes.Buffer
				tab := NewTable()
				if err := c.writeTable(&body, lo, hi); err != nil {
					t.Error(err)
					return
				}
				if err := tab.ReadTable(&body); err != nil || !sameResults(tab.Results(), &Results{Vars: res.Vars, Rows: res.Rows[lo:hi]}) {
					t.Errorf("goroutine %d, rows [%d, %d): %v", g, lo, hi, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzReadTable checks the table body reader on arbitrary bytes and against
// the JSON path:
//   - whole and byte-at-a-time reads agree on accepting a body, and what a
//     read allocates is bounded by the body's size, whatever its header
//     claims;
//   - a rejected body, or an accepted one cut short, leaves a table holding
//     rows exactly as it was;
//   - an accepted body's table, written out again as a table body and as
//     SPARQL-JSON, whole and as a window, reads back to the same rows
//     either way.
func FuzzReadTable(f *testing.F) {
	for _, s := range []struct{ rows, cols, distinct, lo, hi int }{
		{0, 3, 5, 0, 0}, {1, 1, 1, 0, 1}, {7, 0, 1, 0, 7}, {40, 3, 9, 0, 40}, {40, 3, 9, 10, 25}, {30, 4, 0, 5, 12},
	} {
		var body bytes.Buffer
		if err := compactOf(codecResults(s.rows, s.cols, s.distinct, 3)).writeTable(&body, s.lo, s.hi); err == nil {
			f.Add(body.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := NewTable()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tab.ReadTable(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), alloc)
		}
		streamed := NewTable()
		if serr := streamed.ReadTable(iotest.OneByteReader(bytes.NewReader(data))); (serr == nil) != (err == nil) {
			t.Fatalf("whole-body error %v, byte-at-a-time error %v", err, serr)
		}
		held := NewTable()
		if err := held.ReadJSON(bytes.NewReader([]byte(decodeSeeds[0]))); err != nil {
			t.Fatal(err)
		}
		heldBefore := snapshot(held)
		if err != nil {
			if held.ReadTable(bytes.NewReader(data)) == nil {
				t.Fatal("a rejected body was accepted by a table holding rows")
			}
			if !sameTableState(held, heldBefore) {
				t.Fatal("a rejected body changed the table")
			}
			return
		}
		checkTable(t, tab)
		checkTable(t, streamed)
		if !sameResults(tab.Results(), streamed.Results()) {
			t.Fatal("whole and byte-at-a-time reads differ")
		}
		if len(data) > 0 && held.ReadTable(bytes.NewReader(data[:len(data)-1])) == nil {
			t.Fatal("a body cut short was accepted")
		}
		if !sameTableState(held, heldBefore) {
			t.Fatal("a body cut short changed the table")
		}
		if !jsonSafe(tab) {
			return // SPARQL-JSON would rewrite the strings or merge the columns
		}
		c := &tab.compactResult
		for _, win := range [][2]int{{0, c.n}, {c.n / 3, (2*c.n + 2) / 3}} {
			want := c.results(win[0], win[1])
			var asTable, asJSON bytes.Buffer
			if err := c.writeTable(&asTable, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if err := c.writeJSON(&asJSON, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			for name, read := range map[string]func(*Table, io.Reader) error{"table": (*Table).ReadTable, "JSON": (*Table).ReadJSON} {
				body := asTable.Bytes()
				if name == "JSON" {
					body = asJSON.Bytes()
				}
				for _, rd := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
					got := NewTable()
					if err := read(got, rd); err != nil {
						t.Fatalf("window %v as %s: %v", win, name, err)
					}
					if !sameResults(got.Results(), want) {
						t.Fatalf("window %v as %s read back %+v, want %+v", win, name, *got.Results(), *want)
					}
				}
			}
		}
	})
}

// jsonSafe reports whether a table survives SPARQL-JSON unchanged: its
// strings are valid UTF-8, which the JSON encoder would otherwise replace,
// and its column names are distinct, which a JSON row cannot tell apart.
func jsonSafe(tab *Table) bool {
	for i, v := range tab.vars {
		if !utf8.ValidString(v) || slices.Contains(tab.vars[:i], v) {
			return false
		}
	}
	for _, term := range tab.terms {
		if !utf8.ValidString(term.Value) || !utf8.ValidString(term.Datatype) || !utf8.ValidString(term.Lang) {
			return false
		}
	}
	return true
}

func BenchmarkEncodeTable(b *testing.B) {
	for name, res := range benchmarkShapes() {
		c := compactOf(res)
		var size byteCounter
		if err := c.writeTable(&size, 0, c.n); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var w byteCounter
				if err := c.writeTable(&w, 0, c.n); err != nil {
					b.Fatal(err)
				}
				benchSink += int(w)
			}
		})
	}
}

// BenchmarkDecodeTable reads the shapes of BenchmarkDecodeJSON as table
// bodies, into the same Results view ReadJSON returns.
func BenchmarkDecodeTable(b *testing.B) {
	for name, res := range benchmarkShapes() {
		body := tableBody(b, compactOf(res), 0, len(res.Rows))
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := ScratchTable()
				if err := tab.ReadTable(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
				benchSink += len(tab.Results().Rows)
				tab.Release()
			}
		})
	}
}
