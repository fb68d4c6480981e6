package store

import (
	"fmt"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
)

func mtr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

func insOp(graph string, t rdf.Triple) UpdateOp {
	return UpdateOp{Insert: true, Graph: graph, Triple: t}
}
func delOp(graph string, t rdf.Triple) UpdateOp { return UpdateOp{Graph: graph, Triple: t} }

func matchAll(g *Graph) []IDTriple {
	var out []IDTriple
	g.Match(IDTriple{}, func(t IDTriple) bool { out = append(out, t); return true })
	return out
}

func TestApplyBatchInsertDelete(t *testing.T) {
	s := New()
	res, err := s.ApplyBatch([]UpdateOp{
		insOp(g1, mtr("s1", "p", "o1")),
		insOp(g1, mtr("s2", "p", "o2")),
		insOp(g1, mtr("s1", "p", "o1")), // duplicate: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 0 {
		t.Fatalf("insert batch: %+v, want Inserted=2 Deleted=0", res)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Settle the inserts into the base arrays, so the delete below leaves a
	// tombstone rather than withdrawing a pending insert.
	s.CompactGraph(g1)

	res, err = s.ApplyBatch([]UpdateOp{
		delOp(g1, mtr("s1", "p", "o1")),
		delOp(g1, mtr("never", "was", "here")), // absent: no-op
		delOp("http://no-such-graph/", mtr("s2", "p", "o2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 1 {
		t.Fatalf("delete batch: %+v, want Deleted=1", res)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", s.Len())
	}
	g := s.Graph(g1)
	if g.Len() != 1 || g.Tombstones() != 1 {
		t.Fatalf("graph live=%d tombstones=%d, want 1 and 1", g.Len(), g.Tombstones())
	}
	if got := matchAll(g); len(got) != 1 {
		t.Fatalf("Match streams %d triples past a tombstone, want 1", len(got))
	}
}

func TestApplyBatchVersionMovesOncePerChangedTriple(t *testing.T) {
	s := New()
	v0 := s.Version()
	res, err := s.ApplyBatch([]UpdateOp{
		insOp(g1, mtr("a", "p", "b")),
		insOp(g1, mtr("c", "p", "d")),
		insOp(g1, mtr("a", "p", "b")), // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != v0+2 || s.Version() != v0+2 {
		t.Fatalf("version after 2 inserts: res=%d store=%d, want %d", res.Version, s.Version(), v0+2)
	}

	// A complete no-op batch must not move the version: cached results keyed
	// by it stay exactly valid.
	res, err = s.ApplyBatch([]UpdateOp{
		insOp(g1, mtr("a", "p", "b")),
		delOp(g1, mtr("nope", "nope", "nope")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != v0+2 || s.Version() != v0+2 {
		t.Fatalf("no-op batch moved version to %d, want %d", s.Version(), v0+2)
	}
}

func TestApplyBatchRejectsInvalidBeforeApplying(t *testing.T) {
	s := New()
	v0 := s.Version()
	bad := []UpdateOp{
		insOp(g1, mtr("good", "p", "o")),
		{Insert: true, Graph: g1, Triple: rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}},
	}
	if _, err := s.ApplyBatch(bad); err == nil {
		t.Fatal("batch with invalid triple accepted")
	}
	if s.Len() != 0 || s.Version() != v0 {
		t.Fatalf("rejected batch partially applied: len=%d version moved=%v", s.Len(), s.Version() != v0)
	}
	if _, err := s.ApplyBatch([]UpdateOp{{Insert: true, Graph: "", Triple: mtr("s", "p", "o")}}); err == nil {
		t.Fatal("empty graph URI accepted")
	}
}

func TestDeleteReviveKeepsSortedOrder(t *testing.T) {
	s := New()
	// Arrival order c, a, b with ids interned a < b < c: every stream is in
	// id order, not arrival order.
	a, b, c := mtr("a", "p", "o"), mtr("b", "p", "o"), mtr("c", "p", "o")
	for _, x := range []rdf.Triple{a, b, c} {
		s.Dict().Encode(x.S)
	}
	for _, x := range []rdf.Triple{c, a, b} {
		mustAdd(t, s, g1, x)
	}
	s.CompactGraph(g1)
	g := s.Graph(g1)
	before := g.Triples()
	if !ascendingSPO(before) || len(before) != 3 || s.Dict().Decode(before[0].S) != a.S {
		t.Fatalf("Triples not in SPO order: %v", before)
	}

	if _, err := s.ApplyBatch([]UpdateOp{delOp(g1, b)}); err != nil {
		t.Fatal(err)
	}
	if got := g.Triples(); len(got) != 2 || g.Tombstones() != 1 {
		t.Fatalf("live triples = %d, tombstones = %d, want 2 and 1", len(got), g.Tombstones())
	}
	// Re-inserting a tombstoned triple revives it in place: the tombstone
	// goes, nothing is left pending, and the stream is what it was.
	if _, err := s.ApplyBatch([]UpdateOp{insOp(g1, b)}); err != nil {
		t.Fatal(err)
	}
	if got := g.Triples(); !reflect.DeepEqual(got, before) {
		t.Fatalf("revive changed the stream:\nbefore %v\nafter  %v", before, got)
	}
	if lay := g.Layout(); lay.Tombstones != 0 || lay.DeltaTriples != 0 {
		t.Fatalf("layout after revive = %+v, want no tombstones and nothing pending", lay)
	}
}

func TestTombstonesFilteredEverywhere(t *testing.T) {
	s := New()
	p := iri("p")
	for i := 0; i < 20; i++ {
		mustAdd(t, s, g1, rdf.Triple{S: iri(fmt.Sprintf("s%02d", i)), P: p, O: iri(fmt.Sprintf("o%02d", i%5))})
	}
	s.CompactGraph(g1)
	// Delete the even subjects.
	var dels []UpdateOp
	for i := 0; i < 20; i += 2 {
		dels = append(dels, delOp(g1, rdf.Triple{S: iri(fmt.Sprintf("s%02d", i)), P: p, O: iri(fmt.Sprintf("o%02d", i%5))}))
	}
	if _, err := s.ApplyBatch(dels); err != nil {
		t.Fatal(err)
	}
	g := s.Graph(g1)
	pID, _ := s.Dict().Lookup(p)
	if g.Tombstones() != 10 {
		t.Fatalf("Tombstones = %d after deleting 10 base triples", g.Tombstones())
	}

	if got := matchAll(g); len(got) != 10 {
		t.Fatalf("Match sees %d triples, want 10", len(got))
	}
	// MatchParts must filter tombstones inside every part.
	n := 0
	for _, part := range s.MatchParts([]string{g1}, IDTriple{}, 3) {
		part(func(IDTriple) bool { n++; return true })
	}
	if n != 10 {
		t.Fatalf("MatchParts streams %d triples, want 10", n)
	}
	// Sorted runs must exclude dead ids and stay ascending.
	subs := g.SubjectsOfPred(pID)
	if len(subs) != 10 {
		t.Fatalf("SubjectsOfPred = %d subjects, want 10", len(subs))
	}
	assertRun(t, subs)
	for _, sid := range subs {
		if got := g.ObjectsSP(sid, pID); len(got) != 1 {
			t.Fatalf("ObjectsSP(%d) = %d objects, want 1", sid, len(got))
		}
	}
	// Deleted subject: its run must be empty.
	deadS, _ := s.Dict().Lookup(iri("s00"))
	if got := g.ObjectsSP(deadS, pID); len(got) != 0 {
		t.Fatalf("ObjectsSP of tombstoned subject = %v, want empty", got)
	}
}

func TestAutoCompactionTrigger(t *testing.T) {
	s := New()
	var ins []UpdateOp
	for i := 0; i < 256; i++ {
		ins = append(ins, insOp(g1, rdf.Triple{S: iri(fmt.Sprintf("s%03d", i)), P: iri("p"), O: iri("o")}))
	}
	if _, err := s.ApplyBatch(ins); err != nil {
		t.Fatal(err)
	}
	s.CompactGraph(g1)
	g := s.Graph(g1)
	liveWant := make([]IDTriple, 0, 192)
	for i, t0 := range g.Triples() {
		if i%4 != 0 {
			liveWant = append(liveWant, t0)
		}
	}
	// Tombstone a quarter (64 = compactionMinDead, 64*4 >= 256): the batch
	// itself must compact the graph.
	var dels []UpdateOp
	for i := 0; i < 256; i += 4 {
		dels = append(dels, delOp(g1, rdf.Triple{S: iri(fmt.Sprintf("s%03d", i)), P: iri("p"), O: iri("o")}))
	}
	res, err := s.ApplyBatch(dels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 64 {
		t.Fatalf("Deleted = %d, want 64", res.Deleted)
	}
	if g.Tombstones() != 0 {
		t.Fatalf("auto-compaction did not run: %d tombstones remain", g.Tombstones())
	}
	if got := g.Triples(); !reflect.DeepEqual(got, liveWant) {
		t.Fatalf("compaction changed the live stream: got %d triples", len(got))
	}
	if lay := g.Layout(); lay.BaseTriples != 192 {
		t.Fatalf("layout after auto-compaction = %+v, want 192 base triples", lay)
	}
}

func TestCompactionDoesNotMoveVersion(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		mustAdd(t, s, g1, rdf.Triple{S: iri(fmt.Sprintf("s%d", i)), P: iri("p"), O: iri("o")})
	}
	s.CompactGraph(g1)
	var dels []UpdateOp
	for i := 0; i < 3; i++ {
		dels = append(dels, delOp(g1, rdf.Triple{S: iri(fmt.Sprintf("s%d", i)), P: iri("p"), O: iri("o")}))
	}
	if _, err := s.ApplyBatch(dels); err != nil {
		t.Fatal(err)
	}
	g := s.Graph(g1)
	v := s.Version()
	live := append([]IDTriple(nil), g.Triples()...)
	if !s.CompactGraph(g1) {
		t.Fatal("CompactGraph found nothing to do with 3 tombstones")
	}
	if s.Version() != v {
		t.Fatalf("compaction moved the version %d -> %d; cached results would be dropped for nothing", v, s.Version())
	}
	if got := g.Triples(); !reflect.DeepEqual(got, live) {
		t.Fatal("compaction changed the live stream")
	}
	if s.CompactGraph(g1) {
		t.Fatal("second CompactGraph reported work on a clean graph")
	}
}

func TestStatsEpochBumpsOnShrink(t *testing.T) {
	s := New()
	var ts []rdf.Triple
	for i := 0; i < 600; i++ {
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("s%03d", i)), P: iri("p"), O: iri("o")})
	}
	if err := s.AddAll(g1, ts); err != nil {
		t.Fatal(err)
	}
	e0 := s.StatsEpoch()
	// Deleting a third of the store is far past the 1/8 shrink threshold;
	// plans must re-cost against the smaller graph.
	var dels []UpdateOp
	for i := 0; i < 200; i++ {
		dels = append(dels, delOp(g1, ts[i]))
	}
	if _, err := s.ApplyBatch(dels); err != nil {
		t.Fatal(err)
	}
	if s.StatsEpoch() == e0 {
		t.Fatalf("stats epoch unchanged after deleting 200/600 triples")
	}
}

func TestDeleteTriples(t *testing.T) {
	s := New()
	mustAdd(t, s, g1, mtr("a", "p", "b"))
	mustAdd(t, s, g1, mtr("c", "p", "d"))
	v0 := s.Version()
	// A present triple, one of terms never interned, and one of known terms
	// in a graph that does not exist: only the first changes anything.
	res, err := s.ApplyBatch([]UpdateOp{
		{Graph: g1, Triple: mtr("a", "p", "b")},
		{Graph: g1, Triple: mtr("x", "y", "z")},
		{Graph: "http://absent/", Triple: mtr("c", "p", "d")},
	})
	if err != nil || res.Deleted != 1 {
		t.Fatalf("ApplyBatch = %+v, %v, want 1 deleted", res, err)
	}
	if s.Len() != 1 || s.Version() != v0+1 {
		t.Fatalf("len=%d version delta=%d, want 1 and 1", s.Len(), s.Version()-v0)
	}
}
