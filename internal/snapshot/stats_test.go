package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func iriTerm(s string) rdf.Term { return rdf.NewIRI("http://stats/" + s) }

// TestStatsSurviveReopen asserts that the statistics catalog of a reopened
// snapshot equals the original's — the planner must see identical
// cardinalities whether the store was built incrementally or reopened.
func TestStatsSurviveReopen(t *testing.T) {
	st := testStore(t)
	re, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	want, got := st.Stats(), re.Stats()
	if want.TotalTriples != got.TotalTriples {
		t.Fatalf("TotalTriples: want %d, got %d", want.TotalTriples, got.TotalTriples)
	}
	for uri, wg := range want.Graphs {
		gg := got.Graphs[uri]
		if gg == nil {
			t.Fatalf("graph <%s> missing from reopened stats", uri)
		}
		if !reflect.DeepEqual(wg, gg) {
			t.Fatalf("graph <%s> stats differ:\nwant %+v\ngot  %+v", uri, *wg, *gg)
		}
	}
}

// TestOldVersionsRejected hand-rolls the header of a version-1 and a
// version-2 snapshot around a valid checksum: both must be refused by
// version, before anything else is interpreted.
func TestOldVersionsRejected(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		var body bytes.Buffer
		body.WriteString(Magic)
		body.Write(binary.LittleEndian.AppendUint32(nil, v))
		body.Write([]byte{0, 0}) // no terms, no graphs
		body.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body.Bytes())))
		var uv *UnsupportedVersionError
		if _, err := Read(&body); !errors.As(err, &uv) || uv.Got != v {
			t.Fatalf("version-%d snapshot: err = %v, want an UnsupportedVersionError", v, err)
		}
	}
}

// TestSemanticCorruptionRejected damages the triple array in ways a bit
// flip could not (the checksum is re-stamped): a graph's triples must be
// in the dictionary's id range and strictly ascending in SPO order.
func TestSemanticCorruptionRejected(t *testing.T) {
	st := store.New()
	var ids []store.ID
	for _, v := range []string{"a", "b", "c"} {
		ids = append(ids, st.Dict().Encode(iriTerm(v)))
	}
	a, b, c := ids[0], ids[1], ids[2]
	if err := st.BulkGraph("http://g", []store.IDTriple{{S: a, P: b, O: c}, {S: b, P: b, O: a}}); err != nil {
		t.Fatal(err)
	}
	good := snapshotBytes(t, st)
	if _, err := Read(bytes.NewReader(good)); err != nil {
		t.Fatalf("undamaged snapshot rejected: %v", err)
	}
	// The body ends with the two 12-byte triples.
	first, second := len(good)-4-24, len(good)-4-12
	for what, damage := range map[string]func(d []byte){
		"descending order": func(d []byte) {
			tmp := bytes.Clone(d[first:second])
			copy(d[first:], d[second:second+12])
			copy(d[second:], tmp)
		},
		"repeated triple":    func(d []byte) { copy(d[second:], d[first:second]) },
		"id past dictionary": func(d []byte) { binary.LittleEndian.PutUint32(d[second+8:], 4) },
		"zero id":            func(d []byte) { binary.LittleEndian.PutUint32(d[second+4:], 0) },
	} {
		data := bytes.Clone(good)
		damage(data)
		if _, err := Read(bytes.NewReader(withCRC(data))); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
}
