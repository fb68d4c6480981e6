package bench

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rdfframes/internal/datagen"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// figure5Bodies evaluates every Figure-5 query, expert-written and
// RDFFrames-generated, on eng and returns the SPARQL JSON bodies by name.
func figure5Bodies(t *testing.T, env *Env, eng *sparql.Engine) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	for _, task := range Synthetic() {
		generated, err := task.Frame(env).ToSPARQL()
		if err != nil {
			t.Fatalf("%s: generating SPARQL: %v", task.ID, err)
		}
		for kind, q := range map[string]string{"expert": task.Expert(env), "rdfframes": generated} {
			body, err := evalJSON(eng, q)
			if err != nil {
				t.Fatalf("%s (%s): %v", task.ID, kind, err)
			}
			bodies[task.ID+" "+kind] = body
		}
	}
	return bodies
}

// sameBodies reports every query whose body differs between want and got.
func sameBodies(t *testing.T, what string, want, got map[string][]byte) {
	t.Helper()
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: %s diverges (%d vs %d bytes)", name, what, len(got[name]), len(w))
		}
	}
}

// TestSnapshotRoundTripFigure5ByteIdentical is the lossless-reopen property
// check: for every query of the Figure-5 suite (expert-written and the
// RDFFrames-generated form), a store reopened from a snapshot must return
// byte-identical SPARQL JSON to the store the snapshot was taken from.
// Snapshots preserve dictionary ids and triple insertion order, so even row
// order survives — which the client's LIMIT/OFFSET pagination depends on.
func TestSnapshotRoundTripFigure5ByteIdentical(t *testing.T) {
	env := sharedEnv(t)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, env.Store); err != nil {
		t.Fatal(err)
	}
	reopened, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := figure5Bodies(t, env, sparql.NewEngine(env.Store))
	sameBodies(t, "the snapshot-reopened store", want, figure5Bodies(t, env, sparql.NewEngine(reopened)))
}

// TestSnapshotReopenFasterThanReparse: a cold start from a snapshot beats
// re-parsing the same graphs from N-Triples text, both read from memory
// and each timed as the best of five rounds.
func TestSnapshotReopenFasterThanReparse(t *testing.T) {
	env := sharedEnv(t)
	var snap bytes.Buffer
	if err := snapshot.Write(&snap, env.Store); err != nil {
		t.Fatal(err)
	}
	best := func(build func() (*store.Store, error)) time.Duration {
		var fastest time.Duration
		for i := 0; i < 5; i++ {
			runtime.GC()
			start := time.Now()
			st, err := build()
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != env.Store.Len() {
				t.Fatalf("built %d triples, want %d", st.Len(), env.Store.Len())
			}
			if i == 0 || elapsed < fastest {
				fastest = elapsed
			}
		}
		return fastest
	}
	parse := best(func() (*store.Store, error) {
		st := store.New()
		for _, uri := range env.Store.GraphURIs() {
			if _, err := st.LoadNTriples(uri, bytes.NewReader(env.NTriples[uri])); err != nil {
				return nil, err
			}
		}
		return st, nil
	})
	reopen := best(func() (*store.Store, error) { return snapshot.Read(bytes.NewReader(snap.Bytes())) })
	if reopen >= parse {
		t.Errorf("snapshot reopen took %v, re-parsing N-Triples %v", reopen, parse)
	}
	t.Logf("re-parse %v, reopen %v (%.1fx)", parse, reopen, parse.Seconds()/reopen.Seconds())
}

// The recovery workload: walBatches INSERT DATA batches of walOpsPerBatch
// triples each, then the same triples deleted again — all but the last
// batch by DELETE DATA, the last by one DELETE WHERE sweep — so the store
// ends where it started.
const (
	walBatches     = 32
	walOpsPerBatch = 64
)

// insertBatch is the b-th INSERT DATA request: fresh subjects under one
// predicate, with IRI and literal objects so the WAL's term codec
// round-trips both.
func insertBatch(b int) string {
	var sb strings.Builder
	sb.WriteString(`INSERT DATA { GRAPH <` + datagen.DBpediaURI + `> {`)
	for i := 0; i < walOpsPerBatch; i++ {
		n := b*walOpsPerBatch + i
		if i%2 == 0 {
			fmt.Fprintf(&sb, " <http://bench/mut/s%d> <http://bench/mut/p> <http://bench/mut/o%d> .", n, n)
		} else {
			fmt.Fprintf(&sb, " <http://bench/mut/s%d> <http://bench/mut/p> \"value %d\" .", n, n)
		}
	}
	sb.WriteString(" } }")
	return sb.String()
}

// TestWALRecoveryFigure5ByteIdentical is crash recovery over the paper's
// data: snapshot the store, run the insert and delete batches through a
// WAL, compact, then drop the mutated store, reopen the snapshot and replay
// the log. Every batch is replayed, and every Figure-5 query answers the
// same bytes on the recovered store as on the one that never went down.
func TestWALRecoveryFigure5ByteIdentical(t *testing.T) {
	env := sharedEnv(t)
	var snap bytes.Buffer
	if err := snapshot.Write(&snap, env.Store); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "recovery.wal")

	liveStore, err := snapshot.Read(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	live := sparql.NewEngine(liveStore)
	wal, _, err := store.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	live.SetWAL(wal)
	ctx := context.Background()
	var inserted, deleted int
	for b := 0; b < walBatches; b++ {
		res, err := live.Update(ctx, insertBatch(b), fmt.Sprintf("ins-%d", b))
		if err != nil {
			t.Fatalf("insert batch %d: %v", b, err)
		}
		inserted += res.Inserted
	}
	for b := 0; b < walBatches-1; b++ {
		del := "DELETE DATA" + strings.TrimPrefix(insertBatch(b), "INSERT DATA")
		res, err := live.Update(ctx, del, fmt.Sprintf("del-%d", b))
		if err != nil {
			t.Fatalf("delete batch %d: %v", b, err)
		}
		deleted += res.Deleted
	}
	sweep := `DELETE WHERE { GRAPH <` + datagen.DBpediaURI + `> { ?s <http://bench/mut/p> ?o } }`
	res, err := live.Update(ctx, sweep, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	deleted += res.Deleted
	if want := walBatches * walOpsPerBatch; inserted != want || deleted != want {
		t.Fatalf("inserted %d and deleted %d triples, want %d each", inserted, deleted, want)
	}
	liveStore.CompactAll()
	want := figure5Bodies(t, env, live)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := snapshot.Read(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wal, rec, err := store.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if rec.Damage != nil {
		t.Fatalf("WAL damaged after a clean close: %v", rec.Damage)
	}
	if _, err := rec.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Batches); got != 2*walBatches {
		t.Errorf("replayed %d batches, want %d", got, 2*walBatches)
	}
	if recovered.Len() != liveStore.Len() {
		t.Errorf("recovered store holds %d triples, the live one %d", recovered.Len(), liveStore.Len())
	}
	sameBodies(t, "the recovered store", want, figure5Bodies(t, env, sparql.NewEngine(recovered)))
}
