package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

const (
	gA = "http://test/graphA"
	gB = "http://test/graphB"
)

// testStore builds a store exercising every term shape: IRIs, plain, typed
// and language-tagged literals (including escapes), blank nodes, multiple
// graphs, and shared terms across graphs.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	add := func(graph string, s, p, o rdf.Term) {
		t.Helper()
		if err := st.Add(graph, rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	name := rdf.NewIRI("http://ex/name")
	knows := rdf.NewIRI("http://ex/knows")
	for i := 0; i < 50; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/person%d", i))
		add(gA, s, name, rdf.NewLiteral(fmt.Sprintf("Person \"%d\"\nline", i)))
		add(gA, s, knows, rdf.NewIRI(fmt.Sprintf("http://ex/person%d", (i+1)%50)))
		add(gA, s, rdf.NewIRI("http://ex/age"), rdf.NewInteger(int64(20+i%40)))
	}
	add(gA, rdf.NewBlank("b0"), name, rdf.NewLangLiteral("café", "fr"))
	add(gB, rdf.NewIRI("http://ex/person0"), rdf.NewIRI("http://ex/born"),
		rdf.NewTypedLiteral("1990-01-02", rdf.XSDDate))
	add(gB, rdf.NewBlank("b0"), knows, rdf.NewBlank("b1"))
	return st
}

func snapshotBytes(t testing.TB, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allTriples drains a graph through the store's Match API in decoded form.
func allTriples(st *store.Store, graph string) []rdf.Triple {
	var out []rdf.Triple
	st.MatchAny([]string{graph}, store.IDTriple{}, func(tr store.IDTriple) bool {
		out = append(out, rdf.Triple{
			S: st.Dict().Decode(tr.S), P: st.Dict().Decode(tr.P), O: st.Dict().Decode(tr.O),
		})
		return true
	})
	return out
}

func TestRoundTripLossless(t *testing.T) {
	st := testStore(t)
	got, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.GraphURIs(), st.GraphURIs()) {
		t.Fatalf("graph order: got %v want %v", got.GraphURIs(), st.GraphURIs())
	}
	if got.Dict().Len() != st.Dict().Len() {
		t.Fatalf("dict size: got %d want %d", got.Dict().Len(), st.Dict().Len())
	}
	for _, uri := range st.GraphURIs() {
		want, have := allTriples(st, uri), allTriples(got, uri)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("graph <%s>: triples differ\ngot  %v\nwant %v", uri, have, want)
		}
	}
	// Ids must round-trip exactly, not just terms: the dictionary order is
	// part of the format.
	for id := store.ID(1); int(id) <= st.Dict().Len(); id++ {
		term := st.Dict().Decode(id)
		if gotID, ok := got.Dict().Lookup(term); !ok || gotID != id || got.Dict().Decode(id) != term {
			t.Fatalf("term %s: id %d -> %d (ok=%v)", term, id, gotID, ok)
		}
	}
}

func TestRoundTripEmptyStore(t *testing.T) {
	got, err := Read(bytes.NewReader(snapshotBytes(t, store.New())))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || len(got.GraphURIs()) != 0 {
		t.Fatalf("want empty store, got %d triples", got.Len())
	}
}

func TestRoundTripDeterministic(t *testing.T) {
	st := testStore(t)
	a, b := snapshotBytes(t, st), snapshotBytes(t, st)
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same store differ")
	}
}

func TestReopenedStoreAnswersMatchQueries(t *testing.T) {
	st := testStore(t)
	got, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.Dict().Lookup(rdf.NewIRI("http://ex/knows"))
	if !ok {
		t.Fatal("predicate missing after reopen")
	}
	if n := got.Graph(gA).Count(store.IDTriple{P: p}); n != 50 {
		t.Fatalf("knows count = %d, want 50", n)
	}
	// A fully-bound lookup is a search down all three trie levels.
	s, _ := got.Dict().Lookup(rdf.NewIRI("http://ex/person0"))
	o, _ := got.Dict().Lookup(rdf.NewIRI("http://ex/person1"))
	if got.Graph(gA).Count(store.IDTriple{S: s, P: p, O: o}) != 1 {
		t.Fatal("fully-bound match failed on a reopened graph")
	}
	if got.Graph(gA).Count(store.IDTriple{S: s, P: p, O: s}) != 0 {
		t.Fatal("reopened graph reported a phantom triple")
	}
}

func TestReopenedStoreAcceptsIncrementalAdds(t *testing.T) {
	st := testStore(t)
	got, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	before := got.Graph(gA).Len()
	dup := rdf.Triple{S: rdf.NewIRI("http://ex/person0"), P: rdf.NewIRI("http://ex/knows"), O: rdf.NewIRI("http://ex/person1")}
	if err := got.Add(gA, dup); err != nil {
		t.Fatal(err)
	}
	if got.Graph(gA).Len() != before {
		t.Fatal("duplicate add changed the reopened graph size")
	}
	fresh := rdf.Triple{S: rdf.NewIRI("http://ex/new"), P: rdf.NewIRI("http://ex/knows"), O: rdf.NewIRI("http://ex/person0")}
	if err := got.Add(gA, fresh); err != nil {
		t.Fatal(err)
	}
	if got.Graph(gA).Len() != before+1 {
		t.Fatal("fresh add not applied to the reopened graph")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTASNAPSHOTFILE"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFutureVersionRejected(t *testing.T) {
	data := snapshotBytes(t, testStore(t))
	data[8] = 0xFF // bump the little-endian version field
	var vErr *UnsupportedVersionError
	if _, err := Read(bytes.NewReader(data)); !errors.As(err, &vErr) {
		t.Fatalf("err = %v, want UnsupportedVersionError", err)
	}
}

func TestEveryCorruptedByteRejected(t *testing.T) {
	// Flipping any single byte after the version field must fail loudly:
	// either as a structural error or, at the latest, at the checksum. A
	// stride keeps the quadratic scan cheap; offset 12 skips magic+version
	// (those have dedicated tests).
	data := snapshotBytes(t, testStore(t))
	for i := 12; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d of %d accepted", i, len(data))
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	data := snapshotBytes(t, testStore(t))
	for _, cut := range []int{len(data) - 1, len(data) - 4, len(data) / 2, 13} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	data := append(snapshotBytes(t, testStore(t)), 0x00)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestWriteFileAtomicAndReadable(t *testing.T) {
	st := testStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != st.Len() {
		t.Fatalf("reopened %d triples, want %d", got.Len(), st.Len())
	}
	// Overwrite must also work (rename over an existing snapshot).
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	// Snapshots are data files like the .nt dumps beside them: other users
	// (e.g. a server's service account) must be able to read them.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Fatalf("snapshot permissions = %o, want 644", perm)
	}
}

func TestReadFromSlowReader(t *testing.T) {
	// One byte at a time through iotest-style reader: framing must not
	// depend on read chunk boundaries.
	data := snapshotBytes(t, testStore(t))
	got, err := Read(io.LimitReader(&oneByteReader{data: data}, int64(len(data))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("empty store from slow reader")
	}
}

type oneByteReader struct {
	data []byte
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}
