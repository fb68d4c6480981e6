package store

import (
	"fmt"
	"testing"

	"rdfframes/internal/rdf"
)

func addT(t *testing.T, st *Store, g, s, p, o string) {
	t.Helper()
	if err := st.Add(g, rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsIncremental(t *testing.T) {
	st := New()
	addT(t, st, "g", "s1", "p1", "o1")
	addT(t, st, "g", "s1", "p1", "o2")
	addT(t, st, "g", "s2", "p1", "o1")
	addT(t, st, "g", "s2", "p2", "o3")
	addT(t, st, "g", "s2", "p2", "o3") // duplicate: must not change anything

	stats := st.Stats()
	if stats.TotalTriples != 4 {
		t.Fatalf("TotalTriples = %d, want 4", stats.TotalTriples)
	}
	gs := stats.Graphs["g"]
	if gs == nil {
		t.Fatal("no stats for graph g")
	}
	if gs.Triples != 4 || gs.DistinctSubjects != 2 || gs.DistinctObjects != 3 {
		t.Fatalf("graph stats = %+v", *gs)
	}
	p1, _ := st.Dict().Lookup(iri("p1"))
	p2, _ := st.Dict().Lookup(iri("p2"))
	if got := gs.Predicates[p1]; got != (PredicateStats{Triples: 3, DistinctSubjects: 2, DistinctObjects: 2}) {
		t.Fatalf("p1 stats = %+v", got)
	}
	if got := gs.Predicates[p2]; got != (PredicateStats{Triples: 1, DistinctSubjects: 1, DistinctObjects: 1}) {
		t.Fatalf("p2 stats = %+v", got)
	}
}

func TestStatsSnapshotCachedPerVersion(t *testing.T) {
	st := New()
	addT(t, st, "g", "s1", "p1", "o1")
	a := st.Stats()
	if b := st.Stats(); a != b {
		t.Fatal("unchanged store should return the cached stats pointer")
	}
	addT(t, st, "g", "s1", "p1", "o2")
	c := st.Stats()
	if c == a {
		t.Fatal("stats not rebuilt after mutation")
	}
	if c.Graphs["g"].Triples != 2 {
		t.Fatalf("rebuilt stats Triples = %d, want 2", c.Graphs["g"].Triples)
	}
}

func TestStatsBulkMatchesIncremental(t *testing.T) {
	// The same data loaded incrementally and via BulkGraph must produce the
	// same catalog.
	inc := New()
	var triples []rdf.Triple
	for i := 0; i < 20; i++ {
		tr := rdf.Triple{S: iri(fmt.Sprintf("s%d", i%7)), P: iri(fmt.Sprintf("p%d", i%3)), O: iri(fmt.Sprintf("o%d", i))}
		triples = append(triples, tr)
		if err := inc.Add("g", tr); err != nil {
			t.Fatal(err)
		}
	}

	bulk := New()
	ids := make([]IDTriple, 0, len(triples))
	for _, tr := range triples {
		ids = append(ids, IDTriple{bulk.Dict().Encode(tr.S), bulk.Dict().Encode(tr.P), bulk.Dict().Encode(tr.O)})
	}
	if err := bulk.BulkGraph("g", ids); err != nil {
		t.Fatal(err)
	}

	// Dictionaries assign identical ids (same insertion order), so the
	// catalogs must be equal predicate by predicate.
	a, b := inc.Stats().Graphs["g"], bulk.Stats().Graphs["g"]
	if a.Triples != b.Triples || a.DistinctSubjects != b.DistinctSubjects || a.DistinctObjects != b.DistinctObjects {
		t.Fatalf("graph stats differ: incremental %+v, bulk %+v", *a, *b)
	}
	if len(a.Predicates) != len(b.Predicates) {
		t.Fatalf("predicate count differs: %d vs %d", len(a.Predicates), len(b.Predicates))
	}
	for p, ps := range a.Predicates {
		if b.Predicates[p] != ps {
			t.Fatalf("predicate %d stats differ: incremental %+v, bulk %+v", p, ps, b.Predicates[p])
		}
	}
}

func TestStatsAfterAddsIntoBulkGraph(t *testing.T) {
	// Incremental adds into a bulk-loaded graph sit in the delta; the
	// distinct counts must see them there.
	st := New()
	s1, p1, o1 := st.Dict().Encode(iri("s1")), st.Dict().Encode(iri("p1")), st.Dict().Encode(iri("o1"))
	if err := st.BulkGraph("g", []IDTriple{{s1, p1, o1}}); err != nil {
		t.Fatal(err)
	}
	addT(t, st, "g", "s2", "p1", "o1") // new subject for p1
	addT(t, st, "g", "s1", "p1", "o9") // existing subject for p1
	gs := st.Stats().Graphs["g"]
	pid, _ := st.Dict().Lookup(iri("p1"))
	if got := gs.Predicates[pid]; got != (PredicateStats{Triples: 3, DistinctSubjects: 2, DistinctObjects: 2}) {
		t.Fatalf("p1 stats after adds into a bulk graph = %+v", got)
	}
}

func TestStatsEpochAdvancesOnShift(t *testing.T) {
	st := New()
	if st.StatsEpoch() != 0 {
		t.Fatalf("empty store epoch = %d, want 0", st.StatsEpoch())
	}
	addT(t, st, "g", "s0", "p", "o0")
	e1 := st.StatsEpoch()
	if e1 == 0 {
		t.Fatal("first insert (new graph) must advance the epoch")
	}
	// Small growth below the threshold must not move the epoch.
	addT(t, st, "g", "s1", "p", "o1")
	if st.StatsEpoch() != e1 {
		t.Fatalf("epoch moved on tiny growth: %d -> %d", e1, st.StatsEpoch())
	}
	// Large growth must.
	for i := 0; i < 200; i++ {
		addT(t, st, "g", fmt.Sprintf("s%d", i), "p", fmt.Sprintf("bulk%d", i))
	}
	if st.StatsEpoch() == e1 {
		t.Fatal("epoch did not advance after 100x growth")
	}
	// A new graph always advances it.
	e2 := st.StatsEpoch()
	addT(t, st, "g2", "s", "p", "o")
	if st.StatsEpoch() == e2 {
		t.Fatal("epoch did not advance on new graph")
	}
}
