package sparql

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// cycleStore builds a directed cycle a -> b -> c -> a under <http://ex/p>,
// plus an edge c -> d and an isolated node z reachable only via <http://ex/q>.
func cycleStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	add := func(s1, p, o rdf.Term) {
		if err := s.Add(testGraph, rdf.Triple{S: s1, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	p, q := ex("p"), ex("q")
	add(ex("a"), p, ex("b"))
	add(ex("b"), p, ex("c"))
	add(ex("c"), p, ex("a"))
	add(ex("c"), p, ex("d"))
	add(ex("z"), q, ex("a"))
	return s
}

func TestPathSequence(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?c WHERE {
	  ?m <http://ex/starring>/<http://ex/birthPlace> ?c .
	}`)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5: %v", len(rows), rows)
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("internal path variable leaked into projection: %v", r)
		}
	}
}

// A transitive closure over a cycle must terminate, must deduplicate, and
// must include the start node when the cycle leads back to it.
func TestPathPlusCycle(t *testing.T) {
	e := NewEngine(cycleStore(t))
	rows := queryRows(t, e, `SELECT ?o WHERE { <http://ex/a> <http://ex/p>+ ?o }`)
	want := []string{"a", "b", "c", "d"} // a reachable via the cycle a->b->c->a
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if got := rows[i][0]; got != "<http://ex/"+w+">" {
			t.Errorf("row %d: got %s, want <http://ex/%s>", i, got, w)
		}
	}
}

// Zero-length semantics: p* pairs the start with itself even when it has no
// outgoing p edges at all.
func TestPathStarZeroLength(t *testing.T) {
	e := NewEngine(cycleStore(t))
	rows := queryRows(t, e, `SELECT ?o WHERE { <http://ex/d> <http://ex/p>* ?o }`)
	if len(rows) != 1 || rows[0][0] != "<http://ex/d>" {
		t.Fatalf("got %v, want just <http://ex/d> (zero-length match)", rows)
	}
	rows = queryRows(t, e, `SELECT ?o WHERE { <http://ex/z> <http://ex/p>* ?o }`)
	if len(rows) != 1 || rows[0][0] != "<http://ex/z>" {
		t.Fatalf("got %v, want just <http://ex/z>", rows)
	}
}

// Both endpoints unbound: p+ enumerates the full reachability relation.
func TestPathPlusUnboundBoth(t *testing.T) {
	e := NewEngine(cycleStore(t))
	rows := queryRows(t, e, `SELECT ?s ?o WHERE { ?s <http://ex/p>+ ?o }`)
	// a, b, c each reach {a, b, c, d}; d and z reach nothing.
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12: %v", len(rows), rows)
	}
}

// Same variable on both ends: the nodes on the cycle, and only those.
func TestPathPlusSameVar(t *testing.T) {
	e := NewEngine(cycleStore(t))
	rows := queryRows(t, e, `SELECT ?x WHERE { ?x <http://ex/p>+ ?x }`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want the 3 cycle nodes: %v", len(rows), rows)
	}
}

// Backward seeding: a constant object closes over incoming edges.
func TestPathPlusBackward(t *testing.T) {
	e := NewEngine(cycleStore(t))
	rows := queryRows(t, e, `SELECT ?s WHERE { ?s <http://ex/p>+ <http://ex/d> }`)
	if len(rows) != 3 { // a, b, c reach d; d does not reach itself
		t.Fatalf("got %d rows, want 3: %v", len(rows), rows)
	}
}

// A tombstoned triple must not contribute to the closure: deleting b -> c
// cuts everything past b off from a.
func TestPathPlusTombstonedTriple(t *testing.T) {
	e := NewEngine(cycleStore(t))
	_, err := e.Update(context.Background(), `DELETE DATA { GRAPH <`+testGraph+`> {
	  <http://ex/b> <http://ex/p> <http://ex/c> .
	} }`, "")
	if err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, e, `SELECT ?o WHERE { <http://ex/a> <http://ex/p>+ ?o }`)
	if len(rows) != 1 || rows[0][0] != "<http://ex/b>" {
		t.Fatalf("got %v, want just <http://ex/b> after tombstoning b->c", rows)
	}
	// The zero-length closure of the deleted edge's object still matches.
	rows = queryRows(t, e, `SELECT ?o WHERE { <http://ex/c> <http://ex/p>* ?o }`)
	if len(rows) != 4 { // c, a, b (via a), d — the cycle minus the cut edge
		t.Fatalf("got %d rows, want 4: %v", len(rows), rows)
	}
}

// Path results must be byte-identical across parallelism settings — the
// determinism contract the rest of the engine upholds. Runs under -race in
// the CI matrix.
func TestPathByteIdenticalAcrossParallelism(t *testing.T) {
	st := cycleStore(t)
	queries := []string{
		`SELECT ?o WHERE { <http://ex/a> <http://ex/p>+ ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p>* ?o }`,
		`SELECT ?m ?c WHERE { ?m <http://ex/q>/<http://ex/p> ?c . }`,
	}
	serial := NewEngine(st)
	serial.Parallelism = 1
	par := NewEngine(st)
	par.Parallelism = 4
	for _, q := range queries {
		want := marshalQuery(t, serial, q)
		got := marshalQuery(t, par, q)
		if !bytes.Equal(want, got) {
			t.Errorf("parallelism changed bytes for %s:\nserial:   %s\nparallel: %s", q, want, got)
		}
	}
}

func marshalQuery(t *testing.T, e *Engine, q string) []byte {
	t.Helper()
	res, err := runQuery(e, q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	body, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestPathParseErrors(t *testing.T) {
	for name, src := range map[string]string{
		"modifier on variable predicate": `SELECT * WHERE { ?s ?p+ ?o }`,
		"sequence with variable step":    `SELECT * WHERE { ?s <http://ex/p>/?q ?o }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestFeaturesEngine(t *testing.T) {
	e := NewEngine(movieStore(t))
	res, err := e.Features(context.Background(), FeatureSpec{
		Query: `SELECT ?a WHERE { ?m <http://ex/starring> ?a }`,
		Var:   "a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != len(FeatureVars) {
		t.Fatalf("got vars %v, want %v", res.Vars, FeatureVars)
	}
	if len(res.Rows) != 3 { // a1, a2, a3 deduplicated
		t.Fatalf("got %d feature rows, want 3", len(res.Rows))
	}
	byNode := map[string][]string{}
	for _, row := range res.Rows {
		vals := make([]string, 0, 4)
		for _, c := range row[1:] {
			vals = append(vals, c.Value)
		}
		byNode[row[0].String()] = vals
	}
	// a1: out = birthPlace + award = 2; in = starring from m1, m2 = 2;
	// out 2-hop reaches US, Oscar = 2; in 2-hop reaches m1, m2 and their
	// other outgoing... (in-direction counts nodes reaching a1 in <= 2 hops
	// over incoming edges: m1, m2).
	got := byNode["<http://ex/a1>"]
	want := []string{"2", "2", "2", "2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("a1 features = %v, want %v", got, want)
		}
	}
}

func TestFeaturesUnknownVar(t *testing.T) {
	e := NewEngine(movieStore(t))
	_, err := e.Features(context.Background(), FeatureSpec{
		Query: `SELECT ?a WHERE { ?m <http://ex/starring> ?a }`,
		Var:   "nope",
	})
	if err == nil {
		t.Fatal("want error for unknown node variable")
	}
}

// collectWriter records the header and rows Export pushes at it.
type collectWriter struct {
	vars []string
	rows [][]string
}

func (c *collectWriter) WriteHeader(vars []string) error {
	c.vars = append([]string(nil), vars...)
	return nil
}

func (c *collectWriter) WriteRows(terms []rdf.Term, cells []uint32, rows int) (int, error) {
	w := len(c.vars)
	for i := range rows {
		out := make([]string, w)
		for j, cell := range cells[i*w : (i+1)*w] {
			out[j] = terms[cell].String()
		}
		c.rows = append(c.rows, out)
	}
	return rows, nil
}

func TestExportStreamsAllRows(t *testing.T) {
	e := NewEngine(movieStore(t))
	q := `SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`
	var cw collectWriter
	n, err := e.Export(context.Background(), q, &cw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(cw.rows) != 5 {
		t.Fatalf("exported %d rows (writer saw %d), want 5", n, len(cw.rows))
	}
	if len(cw.vars) != 2 {
		t.Fatalf("header %v, want 2 vars", cw.vars)
	}
	// Export must match Query row for row (same canonical order).
	res, err := runQuery(e, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		for j, term := range row {
			if cw.rows[i][j] != term.String() {
				t.Fatalf("row %d col %d: export %s, query %s", i, j, cw.rows[i][j], term.String())
			}
		}
	}
}

// failingWriter takes rows until it has taken limit, then fails.
type failingWriter struct{ taken, limit int }

func (f *failingWriter) WriteHeader([]string) error { return nil }

func (f *failingWriter) WriteRows(_ []rdf.Term, _ []uint32, rows int) (int, error) {
	if f.taken+rows > f.limit {
		n := f.limit - f.taken
		f.taken = f.limit
		return n, errors.New("consumer gone")
	}
	f.taken += rows
	return rows, nil
}

// A write error mid-morsel returns exactly the rows the writer took.
func TestExportCountsRowsBeforeAWriteError(t *testing.T) {
	e := NewEngine(featureStore(t))
	q := `SELECT ?s ?o WHERE { ?s <http://ex/link> ?o }`
	for _, limit := range []int{0, 1, morselRows - 1, morselRows, morselRows + 500} {
		w := &failingWriter{limit: limit}
		n, err := e.Export(context.Background(), q, w)
		if err == nil || n != limit {
			t.Fatalf("limit %d: Export returned %d rows, %v; want %d and the write error", limit, n, err, limit)
		}
	}
}

func TestExportRejectsExplain(t *testing.T) {
	e := NewEngine(movieStore(t))
	var cw collectWriter
	_, err := e.Export(context.Background(), `EXPLAIN SELECT ?m WHERE { ?m <http://ex/starring> ?a }`, &cw)
	if err == nil || !strings.Contains(err.Error(), "EXPLAIN") {
		t.Fatalf("want EXPLAIN rejection, got %v", err)
	}
	if cw.vars != nil || cw.rows != nil {
		t.Fatal("writer must be untouched on early error")
	}
}
