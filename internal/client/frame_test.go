package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// frameStore holds n subjects with an integer each, and a label on every
// third, so that an OPTIONAL on the label leaves cells unbound.
func frameStore(t testing.TB, n int) *store.Store {
	t.Helper()
	triples := make([]rdf.Triple, 0, n+n/3+1)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%06d", i))
		triples = append(triples, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: rdf.NewInteger(int64(i % 97))})
		if i%3 == 0 {
			triples = append(triples, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/l"), O: rdf.NewLiteral(fmt.Sprintf("label %d", i%7))})
		}
	}
	st := store.New()
	if err := st.AddAll(g, triples); err != nil {
		t.Fatal(err)
	}
	return st
}

const optionalLabels = `SELECT ?s ?o ?l WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/l> ?l } } ORDER BY ?o ?s`

// TestFrameMatchesSelect: both clients' Frame holds Select's rows in Select's
// order, unbound cells and a result without columns included.
func TestFrameMatchesSelect(t *testing.T) {
	st := frameStore(t, 40)
	direct := NewDirect(sparql.NewEngine(st))
	ts := httptest.NewServer(server.New(sparql.NewEngine(st)).Handler())
	t.Cleanup(ts.Close)
	remote := NewHTTPClient(ts.URL+"/sparql", 7)
	for _, q := range []string{
		optionalLabels,
		optionalLabels + " LIMIT 5 OFFSET 3",
		`SELECT ?s WHERE { ?s <http://ex/none> ?o }`,
		`SELECT * WHERE { }`,
	} {
		res, err := direct.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		want := dataframe.FromRows(res.Vars, res.Rows)
		for name, c := range map[string]Client{"direct": direct, "http": remote} {
			got, err := c.Frame(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(got.Columns(), want.Columns()) || got.Len() != want.Len() {
				t.Fatalf("%s frame of %q: %v × %d, Select: %v × %d", name, q, got.Columns(), got.Len(), want.Columns(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				for _, col := range want.Columns() {
					if got.Cell(i, col) != want.Cell(i, col) {
						t.Fatalf("%s frame of %q: row %d %s = %v, Select %v", name, q, i, col, got.Cell(i, col), want.Cell(i, col))
					}
				}
			}
		}
	}
}

// TestFrameOfCachedPageLeavesTheEntryAlone: a frame built from a page of a
// cached result adopts that result's cells and terms. Neither appending to
// the slices Table returns nor growing or reordering the frame may change a
// byte of the entry's other pages, which are encoded from the same cells.
func TestFrameOfCachedPageLeavesTheEntryAlone(t *testing.T) {
	st := frameStore(t, 300)
	eng := sparql.NewEngine(st)
	eng.EnableCache(16, 1<<20)
	fresh := sparql.NewEngine(st)
	ctx := context.Background()
	page := func(k int) string { return fmt.Sprintf("%s LIMIT 25 OFFSET %d", optionalLabels, 25*k) }

	if _, err := eng.Do(ctx, sparql.Request{Query: page(0), Serving: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Stream(ctx, sparql.Request{Query: page(2), Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Info.Hit {
		t.Fatal("the middle page was not served from the cached entry")
	}
	vars, terms, cells := resp.Table()
	_ = append(vars, "x")
	_ = append(terms, rdf.NewLiteral("x"))
	_ = append(cells, 1, 1, 1)
	df := dataframe.FromTable(vars, terms, cells, resp.Rows)
	want, err := fresh.Do(ctx, sparql.Request{Query: page(2)})
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV, wantCSV bytes.Buffer
	if err := df.WriteCSV(&gotCSV, true); err != nil {
		t.Fatal(err)
	}
	if err := dataframe.FromRows(want.Results.Vars, want.Results.Rows).WriteCSV(&wantCSV, true); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != wantCSV.String() || df.Len() != 25 {
		t.Fatalf("the middle page reads\n%s\nwant\n%s", gotCSV.String(), wantCSV.String())
	}
	grown := []rdf.Term{rdf.NewIRI("http://ex/new"), rdf.NewInteger(-1), rdf.NewLiteral("new")}
	df.Append(grown)
	renamed, err := df.Rename("o", "o2")
	if err != nil {
		t.Fatal(err)
	}
	renamed.Append(grown)
	sorted, err := df.Sort(dataframe.SortKey{Col: "s", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	sorted.Append(grown)
	kept := df.Filter(func(row []rdf.Term, _ func(string) rdf.Term) bool { return row[2].IsBound() })
	kept.Append(grown)
	both, err := df.Concat(df)
	if err != nil {
		t.Fatal(err)
	}
	both.Append(grown)

	for k := 0; k*25 < 300; k++ {
		got, err := eng.Do(ctx, sparql.Request{Query: page(k), Serving: true, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Info.Hit {
			t.Fatalf("page %d was not served from the cached entry", k)
		}
		want, err := fresh.Do(ctx, sparql.Request{Query: page(k), JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("page %d of the cached entry changed (%d bytes, evaluated afresh %d)", k, len(got.Body), len(want.Body))
		}
	}
}

// TestDirectFrameAllocatesNoCopy pins the handoff: the frame Direct returns
// is the evaluation's compact result, so Frame allocates what Engine.Stream
// does plus a few small objects, not a decoded copy per cell.
func TestDirectFrameAllocatesNoCopy(t *testing.T) {
	const n = 50_000
	eng := sparql.NewEngine(frameStore(t, n))
	eng.Parallelism = 1
	d := NewDirect(eng)
	ctx := context.Background()
	stream := func() {
		resp, err := eng.Stream(ctx, sparql.Request{Query: optionalLabels})
		if err != nil || resp.Rows != n {
			t.Fatalf("%v rows, %v", resp, err)
		}
	}
	frame := func() {
		df, err := d.Frame(optionalLabels)
		if err != nil || df.Len() != n {
			t.Fatalf("%v rows, %v", df, err)
		}
	}
	// Both sides are measured under one collector state: off from before
	// the first run to after the last, so no collection empties the
	// engine's pools for one side to refill, and the runs alternate.
	const runs = 4
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stream() // fills the pools both sides draw on
	var totals [2]struct{ bytes, mallocs float64 }
	for i := 0; i < runs; i++ {
		for side, f := range []func(){stream, frame} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			totals[side].bytes += float64(after.TotalAlloc-before.TotalAlloc) / runs
			totals[side].mallocs += float64(after.Mallocs-before.Mallocs) / runs
		}
	}
	streamBytes, streamMallocs := totals[0].bytes, totals[0].mallocs
	frameBytes, frameMallocs := totals[1].bytes, totals[1].mallocs
	if frameBytes > streamBytes+4<<10 || frameMallocs > streamMallocs+16 {
		t.Fatalf("Frame allocates %.0f B in %.0f objects, Stream %.0f B in %.0f: %.1f B per cell more",
			frameBytes, frameMallocs, streamBytes, streamMallocs, (frameBytes-streamBytes)/(3*n))
	}
	t.Logf("Frame %.0f B / %.0f allocs, Stream %.0f B / %.0f allocs", frameBytes, frameMallocs, streamBytes, streamMallocs)
}
