package sparql

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rdfframes/internal/obs"
	"rdfframes/internal/store"
)

func TestParseUpdateForms(t *testing.T) {
	req, err := ParseUpdate(`
		PREFIX ex: <http://ex/>
		INSERT DATA {
			GRAPH <http://g/> { ex:s ex:p ex:o . ex:s ex:p ex:o2 }
			ex:top ex:p ex:o
		} ;
		DELETE DATA { GRAPH <http://g/> { ex:s ex:p ex:o } } ;
		DELETE WHERE { ?s ex:p ?o . GRAPH <http://g/> { ?s ex:q ?x } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Operations) != 3 {
		t.Fatalf("parsed %d operations, want 3", len(req.Operations))
	}
	ins, del, dw := req.Operations[0], req.Operations[1], req.Operations[2]
	if ins.Kind != InsertData || len(ins.Quads) != 3 {
		t.Fatalf("op 0: kind=%v quads=%d, want INSERT DATA with 3", ins.Kind, len(ins.Quads))
	}
	if ins.Quads[0].Graph != "http://g/" || ins.Quads[2].Graph != "" {
		t.Fatalf("GRAPH scoping lost: %+v", ins.Quads)
	}
	if del.Kind != DeleteData || len(del.Quads) != 1 {
		t.Fatalf("op 1: %+v", del)
	}
	if dw.Kind != DeleteWhere || len(dw.Patterns) != 2 || dw.Where == nil {
		t.Fatalf("op 2: %+v", dw)
	}
	if dw.Patterns[0].Graph != "" || dw.Patterns[1].Graph != "http://g/" {
		t.Fatalf("DELETE WHERE graph tags: %+v", dw.Patterns)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	cases := map[string]string{
		"variable in INSERT DATA": `INSERT DATA { ?s <http://ex/p> <http://ex/o> }`,
		"variable in DELETE DATA": `DELETE DATA { <http://ex/s> <http://ex/p> ?o }`,
		"empty request":           `   `,
		"trailing garbage":        `INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> } nonsense`,
		"empty data block":        `INSERT DATA { }`,
		"empty where block":       `DELETE WHERE { }`,
		"bare SELECT":             `SELECT ?s WHERE { ?s ?p ?o }`,
	}
	for name, src := range cases {
		if _, err := ParseUpdate(src); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestUpdateInsertDeleteRoundTrip(t *testing.T) {
	e := NewEngine(movieStore(t))
	ctx := context.Background()

	res, err := e.Update(ctx, `INSERT DATA { GRAPH <`+testGraph+`> {
		<http://ex/m5> <http://ex/starring> <http://ex/a1> .
		<http://ex/m5> <http://ex/title> "Fifth"
	} }`, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 0 {
		t.Fatalf("insert result: %+v", res)
	}
	rows := queryRows(t, e, `SELECT ?m WHERE { ?m <http://ex/starring> <http://ex/a1> }`)
	if len(rows) != 3 {
		t.Fatalf("after insert: %d starring-a1 movies, want 3", len(rows))
	}

	res, err = e.Update(ctx, `DELETE DATA { GRAPH <`+testGraph+`> {
		<http://ex/m5> <http://ex/starring> <http://ex/a1>
	} }`, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("delete result: %+v", res)
	}
	rows = queryRows(t, e, `SELECT ?m WHERE { ?m <http://ex/starring> <http://ex/a1> }`)
	if len(rows) != 2 {
		t.Fatalf("after delete: %d rows, want 2", len(rows))
	}
}

func TestUpdateMultiOpRequestIsOneAtomicBatch(t *testing.T) {
	e := NewEngine(movieStore(t))
	v0 := e.Store.Version()
	res, err := e.Update(context.Background(), `
		INSERT DATA { GRAPH <`+testGraph+`> { <http://ex/x> <http://ex/p> <http://ex/y> } } ;
		DELETE WHERE { <http://ex/m4> <http://ex/starring> ?a }`, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("result: %+v, want 1 inserted, 1 deleted", res)
	}
	// Both ops commit as one batch: the version moves once, past the batch.
	if res.Version != v0+2 {
		t.Fatalf("version = %d, want %d (one advance per changed triple, at batch end)", res.Version, v0+2)
	}
}

func TestDeleteWhereJoinPattern(t *testing.T) {
	e := NewEngine(movieStore(t))
	// Delete starring edges only for US-born actors: the WHERE join binds
	// ?a through birthPlace, and the template deletes the starring triple.
	res, err := e.Update(context.Background(), `DELETE WHERE {
		?m <http://ex/starring> ?a .
		?a <http://ex/birthPlace> <http://ex/US>
	}`, "")
	if err != nil {
		t.Fatal(err)
	}
	// m1,m2 star a1 (US); m4 stars a3 (US) = 3 starring edges; the
	// birthPlace triples are part of the template too, so a1 and a3 lose
	// theirs (2 more).
	if res.Deleted != 5 {
		t.Fatalf("Deleted = %d, want 5", res.Deleted)
	}
	if rows := queryRows(t, e, `SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`); len(rows) != 2 {
		t.Fatalf("remaining starring edges = %d, want 2 (a2's)", len(rows))
	}
	if rows := queryRows(t, e, `SELECT ?a WHERE { ?a <http://ex/birthPlace> <http://ex/US> }`); len(rows) != 0 {
		t.Fatalf("US birthPlace triples survived: %d", len(rows))
	}
}

func TestUpdateDefaultGraphResolution(t *testing.T) {
	e := NewEngine(movieStore(t))
	// Un-GRAPH'd INSERT DATA with no configured default graph must refuse
	// with a hint, not guess a target.
	_, err := e.Update(context.Background(), `INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> }`, "")
	if err == nil || !strings.Contains(err.Error(), "GRAPH") {
		t.Fatalf("err = %v, want a GRAPH hint", err)
	}
	e.DefaultGraphs = []string{testGraph}
	res, err := e.Update(context.Background(), `INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> }`, "")
	if err != nil || res.Inserted != 1 {
		t.Fatalf("insert with default graph: %+v, %v", res, err)
	}
	// Un-GRAPH'd DELETE DATA ranges over the default graph set.
	res, err = e.Update(context.Background(), `DELETE DATA { <http://ex/s> <http://ex/p> <http://ex/o> }`, "")
	if err != nil || res.Deleted != 1 {
		t.Fatalf("delete with default graph: %+v, %v", res, err)
	}
}

func TestUpdateIdempotencyTokenWithoutWAL(t *testing.T) {
	e := NewEngine(movieStore(t))
	src := `INSERT DATA { GRAPH <` + testGraph + `> { <http://ex/once> <http://ex/p> <http://ex/o> } }`
	first, err := e.Update(context.Background(), src, "tok-A")
	if err != nil {
		t.Fatal(err)
	}
	if first.Inserted != 1 || first.Deduped {
		t.Fatalf("first delivery: %+v", first)
	}
	second, err := e.Update(context.Background(), src, "tok-A")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.Inserted != 0 || second.Seq != first.Seq {
		t.Fatalf("retry not deduped: %+v (first seq %d)", second, first.Seq)
	}
	if second.Version != first.Version {
		t.Fatalf("deduped retry moved the version %d -> %d", first.Version, second.Version)
	}
	// A different token applies normally (and is a store-level no-op here).
	third, err := e.Update(context.Background(), src, "tok-B")
	if err != nil {
		t.Fatal(err)
	}
	if third.Deduped || third.Inserted != 0 {
		t.Fatalf("distinct token: %+v", third)
	}
}

// TestDeleteWhereInvalidatesResultCache is the stale-read acceptance check:
// a cached serving-path body must never be served after a delete changed the
// answer — the store version in the cache key forces the miss.
func TestDeleteWhereInvalidatesResultCache(t *testing.T) {
	e := NewEngine(movieStore(t))
	e.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	ctx := context.Background()
	q := `SELECT ?m WHERE { ?m <http://ex/starring> <http://ex/a2> }`

	first, err := e.Do(ctx, Request{Query: q, Serving: true, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows != 2 || first.Info.Hit {
		t.Fatalf("first serve: rows=%d hit=%v", first.Rows, first.Info.Hit)
	}
	warm, err := e.Do(ctx, Request{Query: q, Serving: true, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Info.Hit || !bytes.Equal(warm.Body, first.Body) {
		t.Fatalf("second serve should hit with the same body: hit=%v", warm.Info.Hit)
	}

	if _, err := e.Update(ctx, `DELETE WHERE { ?m <http://ex/starring> <http://ex/a2> }`, ""); err != nil {
		t.Fatal(err)
	}

	after, err := e.Do(ctx, Request{Query: q, Serving: true, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Info.Hit {
		t.Fatal("stale cache hit after DELETE WHERE: version keying is broken")
	}
	if after.Info.StoreVersion <= warm.Info.StoreVersion {
		t.Fatalf("store version did not advance: %d -> %d", warm.Info.StoreVersion, after.Info.StoreVersion)
	}
	if after.Rows != 0 {
		t.Fatalf("deleted rows still visible: %d", after.Rows)
	}
	if bytes.Equal(after.Body, first.Body) {
		t.Fatal("post-delete body identical to pre-delete body")
	}
}

// TestResultCacheDropsSupersededVersions: every update makes the entries
// of the older store version unreachable, so the cache must not keep them.
// After each of 200 update+read cycles it holds at most one entry per
// distinct query, and its charged cost is that of those entries alone.
func TestResultCacheDropsSupersededVersions(t *testing.T) {
	e := NewEngine(movieStore(t))
	e.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	ctx := context.Background()
	queries := []string{
		`SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`,
		`SELECT ?m ?t WHERE { ?m <http://ex/title> ?t }`,
		`SELECT ?m WHERE { ?m <http://ex/starring> <http://ex/a2> }`,
	}
	for cycle := 0; cycle < 200; cycle++ {
		op, subject := "INSERT", cycle
		if cycle%3 == 2 {
			op, subject = "DELETE", cycle-1
		}
		update := fmt.Sprintf(`%s DATA { GRAPH <%s> { <http://ex/extra%d> <http://ex/starring> <http://ex/a2> } }`, op, testGraph, subject)
		if res, err := e.Update(ctx, update, ""); err != nil || res.Inserted+res.Deleted == 0 {
			t.Fatalf("cycle %d: update changed nothing: %+v, %v", cycle, res, err)
		}
		wantCost := int64(0)
		for _, q := range queries[:1+cycle%len(queries)] {
			for page := 0; page < 2; page++ { // the second read hits
				resp, err := e.Do(ctx, Request{Query: q, Serving: true, JSON: true})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Info.Hit != (page == 1) || resp.Info.StoreVersion != e.Store.Version() {
					t.Fatalf("cycle %d read %d: hit=%v at version %d, store at %d", cycle, page, resp.Info.Hit, resp.Info.StoreVersion, e.Store.Version())
				}
				if page == 1 {
					wantCost += resp.entry.cost()
				}
			}
		}
		st := e.results.Stats()
		if st.Entries > 1+cycle%len(queries) || st.Cost != wantCost {
			t.Fatalf("cycle %d: cache holds %d entries at cost %d, want at most %d entries at cost %d",
				cycle, st.Entries, st.Cost, 1+cycle%len(queries), wantCost)
		}
		if st.Evictions != 0 {
			t.Fatalf("cycle %d: %d budget evictions; dead versions must be dropped, not squeezed out", cycle, st.Evictions)
		}
	}
}

// TestUpdateWALCrashRecoveryByteIdentical simulates kill-9 after an
// unsnapshotted update batch: a fresh process that rebuilds the base store
// and replays the WAL must answer queries byte-identically to the process
// that never crashed.
func TestUpdateWALCrashRecoveryByteIdentical(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "updates.wal")
	queries := []string{
		`SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`,
		`SELECT ?m ?t WHERE { ?m <http://ex/title> ?t }`,
	}

	// Process 1: base store + WAL, two update batches, then "crash" (no
	// snapshot, just the fsync'd log).
	live := NewEngine(movieStore(t))
	w, rec, err := store.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 {
		t.Fatal("fresh WAL not empty")
	}
	live.SetWAL(w)
	ctx := context.Background()
	if _, err := live.Update(ctx, `INSERT DATA { GRAPH <`+testGraph+`> {
		<http://ex/m9> <http://ex/starring> <http://ex/a2> .
		<http://ex/m9> <http://ex/title> "Ninth"
	} }`, "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Update(ctx, `DELETE WHERE { <http://ex/m1> <http://ex/starring> ?a }`, "t2"); err != nil {
		t.Fatal(err)
	}
	wantBodies := make([][]byte, len(queries))
	for i, q := range queries {
		resp, err := live.Do(ctx, Request{Query: q, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		wantBodies[i] = resp.Body
	}
	w.Close() // crash: the store's in-memory state is gone

	// Process 2: rebuild the base dataset (as a snapshot reopen would),
	// replay the WAL tail, attach it, and compare every answer byte for byte.
	recovered := movieStore(t)
	w2, rec2, err := store.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.Damage != nil {
		t.Fatalf("unexpected damage: %v", rec2.Damage)
	}
	if len(rec2.Batches) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(rec2.Batches))
	}
	if _, err := rec2.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(recovered)
	e2.SetWAL(w2)
	for i, q := range queries {
		resp, err := e2.Do(ctx, Request{Query: q, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Body, wantBodies[i]) {
			t.Fatalf("query %d diverges after recovery:\nlive      %s\nrecovered %s", i, wantBodies[i], resp.Body)
		}
	}
	// The recovered engine dedups tokens the pre-crash process committed.
	res, err := e2.Update(ctx, `INSERT DATA { GRAPH <`+testGraph+`> { <http://ex/any> <http://ex/p> <http://ex/o> } }`, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduped {
		t.Fatal("token committed before the crash was not deduped after recovery")
	}
}

// TestDoBodiesAgreeAcrossPaths: one query answers with the same SPARQL
// JSON whether Do decodes it or encodes it, and off the serving path, on a
// result-cache miss and on a hit.
func TestDoBodiesAgreeAcrossPaths(t *testing.T) {
	q := `SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`
	ctx := context.Background()

	e1 := NewEngine(movieStore(t))
	decoded, err := runQuery(e1, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := decoded.MarshalJSON()
	direct, err := e1.Do(ctx, Request{Query: q, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Body, want) {
		t.Fatal("Do's JSON body diverges from its decoded results")
	}

	e2 := NewEngine(movieStore(t))
	e2.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	for _, outcome := range []string{"miss", "hit"} {
		resp, err := e2.Do(ctx, Request{Query: q, Serving: true, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Info.CacheOutcome() != outcome {
			t.Fatalf("cache outcome = %s, want %s", resp.Info.CacheOutcome(), outcome)
		}
		if !bytes.Equal(resp.Body, want) {
			t.Fatalf("serving body on a %s diverges from direct evaluation", outcome)
		}
	}
}

// TestDoTracesEveryPath: a traced request records the same parse, plan and
// exec spans and join annotations whether or not it takes the serving path,
// and a repeat of its text on the same engine is a plan-cache hit with no
// parse or plan span.
func TestDoTracesEveryPath(t *testing.T) {
	q := `SELECT ?m ?c WHERE { ?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c }`
	spansOf := func(tr *obs.Trace) map[string]bool {
		spans := map[string]bool{}
		for _, sp := range tr.Spans() {
			spans[sp.Name] = true
		}
		return spans
	}
	for _, serving := range []bool{false, true} {
		// A cold engine per path, so each pays for its own parse and plan.
		e := NewEngine(movieStore(t))
		tr := obs.NewTrace("t")
		if _, err := e.Do(obs.WithTrace(context.Background(), tr), Request{Query: q, Serving: serving}); err != nil {
			t.Fatal(err)
		}
		spans := spansOf(tr)
		for _, name := range []string{"parse", "plan", "exec"} {
			if !spans[name] {
				t.Errorf("serving=%v: no %s span in %v", serving, name, tr.Spans())
			}
		}
		if tr.Note("join_rows") == "" {
			t.Errorf("serving=%v: no join_rows annotation", serving)
		}

		// The same text again on the same engine reuses the parse and plan.
		tr = obs.NewTrace("t")
		if _, err := e.Do(obs.WithTrace(context.Background(), tr), Request{Query: q, Serving: serving}); err != nil {
			t.Fatal(err)
		}
		if got := tr.Note("plan_cache"); got != "hit" {
			t.Errorf("serving=%v, second run: plan_cache=%q, want hit", serving, got)
		}
		if spans := spansOf(tr); spans["parse"] || spans["plan"] {
			t.Errorf("serving=%v, second run: parse or plan span in %v", serving, tr.Spans())
		}
	}
}

func TestDoMaxRowsTruncation(t *testing.T) {
	e := NewEngine(movieStore(t))
	ctx := context.Background()
	q := `SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`

	resp, err := e.Do(ctx, Request{Query: q, MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 2 || !resp.Truncated || len(resp.Results.Rows) != 2 {
		t.Fatalf("direct path: rows=%d truncated=%v", resp.Rows, resp.Truncated)
	}
	resp, err = e.Do(ctx, Request{Query: q, Serving: true, MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 2 || !resp.Truncated {
		t.Fatalf("serving path: rows=%d truncated=%v", resp.Rows, resp.Truncated)
	}
	resp, err = e.Do(ctx, Request{Query: q, MaxRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 5 || resp.Truncated {
		t.Fatalf("uncut page: rows=%d truncated=%v", resp.Rows, resp.Truncated)
	}
}
