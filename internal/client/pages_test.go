package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/faults"
	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// optionalLabelsUnordered is optionalLabels without its ORDER BY: its rows
// come in the engine's canonical order, which every page of a paginated
// read shares.
const optionalLabelsUnordered = `SELECT ?s ?o ?l WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/l> ?l } }`

// sameTable reports how got differs from want, cell by cell in row order.
func sameTable(got, want *dataframe.DataFrame) error {
	if !slices.Equal(got.Columns(), want.Columns()) || got.Len() != want.Len() {
		return fmt.Errorf("%v × %d rows, want %v × %d", got.Columns(), got.Len(), want.Columns(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for _, col := range want.Columns() {
			if g, w := got.Cell(i, col), want.Cell(i, col); g != w {
				return fmt.Errorf("row %d, %s = %v, want %v", i, col, g, w)
			}
		}
	}
	return nil
}

// TestHTTPFrameRetriesCutPage: a Frame page whose body dies mid-stream is
// fetched again, and the rows the cut page had already put into the table
// are dropped first, so the frame equals the in-process one cell for cell —
// whether the cut page is the seventh of many or the only one.
func TestHTTPFrameRetriesCutPage(t *testing.T) {
	st := frameStore(t, 300)
	want, err := NewDirect(sparql.NewEngine(st)).Frame(optionalLabelsUnordered)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sparql.NewEngine(st)).Handler())
	t.Cleanup(ts.Close)
	for _, tc := range []struct{ pageSize, cutRequest, limit int }{
		{7, 7, 100},         // a page of 7 rows is ≈200 B on the wire
		{100_000, 1, 1_500}, // the one page is ≈2.7 KB
	} {
		ct := &faults.CutBodyTransport{Limit: int64(tc.limit)}
		c := NewHTTPClient(ts.URL+"/sparql", tc.pageSize)
		c.HTTP = &http.Client{Transport: &armAtRequest{ct: ct, n: tc.cutRequest}}
		c.Retry = &RetryPolicy{BaseDelay: time.Millisecond, Jitter: -1}
		got, err := c.Frame(optionalLabelsUnordered)
		if err != nil {
			t.Fatalf("page size %d: %v", tc.pageSize, err)
		}
		if ct.Cuts() != 1 {
			t.Fatalf("page size %d: %d cuts, want 1", tc.pageSize, ct.Cuts())
		}
		if err := sameTable(got, want); err != nil {
			t.Errorf("page size %d, retried after a cut: %v", tc.pageSize, err)
		}
	}
}

// TestHTTPFrameAfterTheMemoStops: a result of mostly distinct terms stops
// the decoder's memo early (past 1,024 entries with under one hit per 8), so
// later terms take a table entry per cell while the memoized ones are still
// found. The frame is still the in-process one, at any page size.
func TestHTTPFrameAfterTheMemoStops(t *testing.T) {
	const n = 3000
	st := store.New()
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%05d", i))
		triples := []rdf.Triple{{S: s, P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(fmt.Sprintf("value %d", i))}}
		if i%16 == 0 {
			triples = append(triples, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/l"), O: rdf.NewLiteral(fmt.Sprintf("label %d", i%3))})
		}
		if err := st.AddAll(g, triples); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT ?s ?v ?l WHERE { ?s <http://ex/p> ?v OPTIONAL { ?s <http://ex/l> ?l } }`
	want, err := NewDirect(sparql.NewEngine(st)).Frame(q)
	if err != nil || want.Len() != n {
		t.Fatalf("%v rows, %v", want, err)
	}
	ts := httptest.NewServer(server.New(sparql.NewEngine(st)).Handler())
	t.Cleanup(ts.Close)
	for _, pageSize := range []int{700, 100_000} {
		got, err := NewHTTPClient(ts.URL+"/sparql", pageSize).Frame(q)
		if err != nil {
			t.Fatalf("page size %d: %v", pageSize, err)
		}
		if err := sameTable(got, want); err != nil {
			t.Errorf("page size %d: %v", pageSize, err)
		}
	}
}

// insertBetweenPages serves eng and, before each of the inserts pages
// after the first, inserts a subject that sorts before every other: the
// rows under each later offset shift by one. strip drops
// X-Store-Version from the responses, as an endpoint that sends none.
func insertBetweenPages(t *testing.T, eng *sparql.Engine, inserts int, strip bool) (*httptest.Server, *atomic.Int32) {
	var pages atomic.Int32
	h := server.New(eng).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strip {
			w = versionStripper{w}
		}
		if n := int(pages.Add(1)); n > 1 && n <= inserts+1 {
			u := fmt.Sprintf(`INSERT DATA { GRAPH <%s> { <http://ex/a%03d> <http://ex/p> 0 } }`, g, 999-eng.Store.Version())
			if _, err := eng.Update(context.Background(), u, ""); err != nil {
				t.Error(err)
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &pages
}

// versionStripper drops X-Store-Version before the header goes out.
type versionStripper struct{ http.ResponseWriter }

func (v versionStripper) WriteHeader(code int) {
	v.Header().Del("X-Store-Version")
	v.ResponseWriter.WriteHeader(code)
}

func (v versionStripper) Write(b []byte) (int, error) {
	v.Header().Del("X-Store-Version")
	return v.ResponseWriter.Write(b)
}

// TestPagedReadKeepsOneStoreVersion: ten rows read four at a time, with a
// row inserted after the first page, used to come back as eleven rows,
// one twice and the new one not at all, the pages stitched from two store
// versions. The read sees X-Store-Version move, starts over and returns
// the store after the insert; LastStats names its version.
func TestPagedReadKeepsOneStoreVersion(t *testing.T) {
	const q = `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	eng := sparql.NewEngine(frameStore(t, 10))
	ts, pages := insertBetweenPages(t, eng, 1, false)
	c := NewHTTPClient(ts.URL+"/sparql", 4)
	got, err := c.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDirect(eng).Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal) || len(want.Rows) != 11 {
		t.Fatalf("%d rows %v, want the %d after the insert %v", len(got.Rows), got.Rows, len(want.Rows), want.Rows)
	}
	if n := pages.Load(); n != 2+3 {
		t.Errorf("%d pages fetched, want 2 and then the 3 of the read over", n)
	}
	if v, want := c.LastStats().StoreVersion, fmt.Sprint(eng.Store.Version()); v != want {
		t.Errorf("LastStats().StoreVersion = %q, want %q", v, want)
	}

	// A store that changes under every page fails the read, typed.
	ts, pages = insertBetweenPages(t, eng, 100, false)
	if _, err := NewHTTPClient(ts.URL+"/sparql", 4).Select(q); !errors.Is(err, ErrStoreChanged) {
		t.Errorf("a store changing between all pages: %v, want %v", err, ErrStoreChanged)
	}
	if n := pages.Load(); n != 2*(versionRestarts+1) {
		t.Errorf("%d pages fetched, want two per try", n)
	}

	// An endpoint that sends no version is read as it always was: once.
	if want, err = NewDirect(eng).Select(q); err != nil {
		t.Fatal(err)
	}
	n := len(want.Rows) + 1 // and the row inserted after the first page
	ts, pages = insertBetweenPages(t, eng, 1, true)
	c = NewHTTPClient(ts.URL+"/sparql", 4)
	if got, err = c.Select(q); err != nil || len(got.Rows) != n || int(pages.Load()) != n/4+1 {
		t.Errorf("%d rows over %d pages, %v: want %d rows over %d pages", len(got.Rows), pages.Load(), err, n, n/4+1)
	}
	if v := c.LastStats().StoreVersion; v != "" {
		t.Errorf("LastStats().StoreVersion = %q from an endpoint that sends none", v)
	}
}

// TestPagesMustKeepTheirColumns: a page whose head lists the same columns in
// another order would put its cells under the wrong names. Select and Frame
// both refuse it, and do not fetch it again.
func TestPagesMustKeepTheirColumns(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		head, rows := `"b","a"`, ""
		row := `{"a":{"type":"uri","value":"http://ex/a"},"b":{"type":"literal","value":"b"}}`
		switch q := r.FormValue("query"); {
		case strings.HasSuffix(q, "OFFSET 0"):
			head, rows = `"a","b"`, row+","+row
		case strings.HasSuffix(q, "OFFSET 2"):
			rows = row + "," + row
		}
		fmt.Fprintf(w, `{"head":{"vars":[%s]},"results":{"bindings":[%s]}}`, head, rows)
	}))
	t.Cleanup(ts.Close)
	c := NewHTTPClient(ts.URL+"/sparql", 2)
	c.Retry = &RetryPolicy{BaseDelay: time.Millisecond, Jitter: -1}
	const q = `SELECT ?a ?b WHERE { ?a <http://ex/p> ?b }`
	for name, read := range map[string]func() error{
		"Select": func() error { _, err := c.Select(q); return err },
		"Frame":  func() error { _, err := c.Frame(q); return err },
	} {
		requests.Store(0)
		if err := read(); !errors.Is(err, sparql.ErrColumnsChanged) {
			t.Errorf("%s over a page with swapped columns: %v, want %v", name, err, sparql.ErrColumnsChanged)
		}
		if got := requests.Load(); got != 2 {
			t.Errorf("%s made %d requests, want 2 (the swapped page is not retried)", name, got)
		}
	}
}

// TestFeaturesViaPost: with UsePost, Features sends its parameters as a form
// like Select and Export, so an endpoint that refuses long query strings
// still answers it.
func TestFeaturesViaPost(t *testing.T) {
	st := frameStore(t, 20)
	h := server.New(sparql.NewEngine(st)).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/features" {
			http.Error(w, "use POST", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewHTTPClient(ts.URL+"/sparql", 0)
	c.UsePost = true
	const q = `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	got, err := c.Features(q, "s", 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDirect(sparql.NewEngine(st)).Features(q, "s", 4)
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, got) != canonJSON(t, want) {
		t.Fatalf("features over POST:\n%s\nwant\n%s", canonJSON(t, got), canonJSON(t, want))
	}
}
