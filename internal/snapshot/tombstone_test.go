package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// TestSnapshotWithTombstonesRoundTrip: a store carrying tombstones (deletes
// below the compaction threshold) and pending inserts snapshots its live
// content only — the reopened store holds exactly the live triples, in the
// same order, with nothing left to merge.
func TestSnapshotWithTombstonesRoundTrip(t *testing.T) {
	st := testStore(t)
	st.CompactAll() // settle, so the deletes below leave tombstones
	// Tombstone a slice of graph A via the batch API: every third person's
	// name triple.
	var dels []store.UpdateOp
	for i, tr := range allTriples(st, gA) {
		if i%3 == 0 {
			dels = append(dels, store.UpdateOp{Graph: gA, Triple: tr})
		}
	}
	res, err := st.ApplyBatch(dels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != len(dels) {
		t.Fatalf("Deleted = %d, want %d", res.Deleted, len(dels))
	}
	if err := st.Add(gA, rdf.Triple{S: rdf.NewIRI("http://ex/late"), P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral("late")}); err != nil {
		t.Fatal(err)
	}
	if lay := st.Graph(gA).Layout(); lay.Tombstones == 0 || lay.DeltaTriples == 0 {
		t.Fatalf("test premise broken: layout %+v before the snapshot", lay)
	}

	reopened, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != st.Len() {
		t.Fatalf("reopened %d triples, want %d", reopened.Len(), st.Len())
	}
	for _, g := range []string{gA, gB} {
		if got, want := allTriples(reopened, g), allTriples(st, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %s: reopened live stream diverges (%d vs %d triples)", g, len(got), len(want))
		}
		if lay := reopened.Graph(g).Layout(); lay.Tombstones != 0 || lay.DeltaTriples != 0 {
			t.Fatalf("graph %s: reopened with layout %+v", g, lay)
		}
	}
	// The snapshot of a tombstoned store is byte-identical to the snapshot
	// of its compacted twin: both serialize the live content.
	st.CompactAll()
	if !bytes.Equal(snapshotBytes(t, st), snapshotBytes(t, reopened)) {
		t.Fatal("snapshot bytes diverge between tombstoned and compacted stores")
	}
}
