package sparql

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func cacheTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < 30; i++ {
		err := st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/name"),
			O: rdf.NewLiteral(fmt.Sprintf("name %02d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestQueryServingMatchesUncached runs a spread of query shapes through a
// cached engine twice (miss then hit) and an uncached engine, asserting
// byte-identical SPARQL JSON across all three answers.
func TestQueryServingMatchesUncached(t *testing.T) {
	st := cacheTestStore(t)
	cached := NewEngine(st)
	cached.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	plain := NewEngine(st)

	queries := []string{
		`SELECT * WHERE { ?s <http://ex/p> ?o }`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7 OFFSET 11`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } OFFSET 28 LIMIT 10`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 5`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY DESC(?o) LIMIT 4 OFFSET 2`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s LIMIT 6`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } OFFSET 1000`,
	}
	for _, q := range queries {
		want, err := runQuery(plain, q)
		if err != nil {
			t.Fatalf("%s: uncached: %v", q, err)
		}
		// The first serving may already hit: several of these texts
		// normalize to the same stripped key, which is the point of
		// pagination-aware slicing. Only byte-identity is asserted here.
		miss, err := cached.Do(context.Background(), Request{Query: q, Serving: true})
		if err != nil {
			t.Fatalf("%s: cached first serving: %v", q, err)
		}
		hit, err := cached.Do(context.Background(), Request{Query: q, Serving: true})
		if err != nil {
			t.Fatalf("%s: cached hit: %v", q, err)
		}
		if !hit.Info.Hit {
			t.Fatalf("%s: second serving was not a hit", q)
		}
		wantJSON := mustJSON(t, want)
		if got := mustJSON(t, miss.Results); !bytes.Equal(got, wantJSON) {
			t.Fatalf("%s: miss response differs from uncached\n got: %s\nwant: %s", q, got, wantJSON)
		}
		if got := mustJSON(t, hit.Results); !bytes.Equal(got, wantJSON) {
			t.Fatalf("%s: hit response differs from uncached\n got: %s\nwant: %s", q, got, wantJSON)
		}
	}
}

func mustJSON(t *testing.T, r *Results) []byte {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestQueryServingPageSharing checks pagination-aware slicing: every page
// of a LIMIT/OFFSET sweep after the first is answered from the cache with
// zero further evaluations.
func TestQueryServingPageSharing(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	plain := NewEngine(st)

	base := `SELECT * WHERE { ?s <http://ex/p> ?o }`
	var gotRows, wantRows int
	for off := 0; off < 30; off += 7 {
		page := fmt.Sprintf("%s LIMIT %d OFFSET %d", base, 7, off)
		resp, err := eng.Do(context.Background(), Request{Query: page, Serving: true})
		if err != nil {
			t.Fatal(err)
		}
		res := resp.Results
		if off == 0 && resp.Info.Hit {
			t.Fatal("first page cannot be a hit")
		}
		if off > 0 && !resp.Info.Hit {
			t.Fatalf("page at offset %d missed the cache", off)
		}
		want, err := runQuery(plain, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
			t.Fatalf("page at offset %d differs from direct evaluation", off)
		}
		gotRows += len(res.Rows)
		wantRows += len(want.Rows)
	}
	if gotRows != 30 || wantRows != 30 {
		t.Fatalf("swept %d cached rows, %d direct rows, want 30", gotRows, wantRows)
	}
	stats := eng.CacheStats()
	if stats.Results.Misses != 1 {
		t.Fatalf("result misses = %d, want exactly 1 evaluation for the sweep", stats.Results.Misses)
	}
	if stats.Results.Hits != 4 {
		t.Fatalf("result hits = %d, want 4", stats.Results.Hits)
	}
}

// TestPageSweepSpellingsEvaluateOnce: the page window is the parser's, so
// a sweep whose clauses carry comments after or between them, or are
// written in lowercase, still costs one evaluation, and every page matches
// direct evaluation.
func TestPageSweepSpellingsEvaluateOnce(t *testing.T) {
	st := cacheTestStore(t)
	plain := NewEngine(st)
	const base = `SELECT * WHERE { ?s <http://ex/p> ?o }`
	for name, spelling := range map[string]string{
		"comment after":   "%s LIMIT %d OFFSET %d # page",
		"comment between": "%s LIMIT %d # page size\nOFFSET %d",
		"comment before":  "%s # the frame\nLIMIT %d OFFSET %d",
		"lowercase":       "%s limit %d offset %d",
	} {
		eng := NewEngine(st)
		eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
		for off := 0; off < 30; off += 7 {
			page := fmt.Sprintf(spelling, base, 7, off)
			resp, err := eng.Do(context.Background(), Request{Query: page, Serving: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := runQuery(plain, page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, resp.Results), mustJSON(t, want)) {
				t.Fatalf("%s: page at offset %d differs from direct evaluation", name, off)
			}
		}
		if n := eng.Evaluations(); n != 1 {
			t.Errorf("%s: the sweep evaluated %d times, want 1", name, n)
		}
	}
}

// TestQueryServingInvalidationOnMutation asserts the store-version rule: a
// mutation makes the next serving a miss whose answer reflects the
// mutation; the version header value moves with it.
func TestQueryServingInvalidationOnMutation(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)

	q := `SELECT * WHERE { ?s <http://ex/p> ?o }`
	resp, err := eng.Do(context.Background(), Request{Query: q, Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 30 {
		t.Fatalf("rows = %d", resp.Rows)
	}
	v0 := resp.Info.StoreVersion

	if err := st.Add("http://g", rdf.Triple{
		S: rdf.NewIRI("http://ex/s99"),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewInteger(99),
	}); err != nil {
		t.Fatal(err)
	}

	resp, err = eng.Do(context.Background(), Request{Query: q, Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Info.Hit {
		t.Fatal("stale hit after mutation")
	}
	if resp.Info.StoreVersion <= v0 {
		t.Fatalf("store version did not advance: %d -> %d", v0, resp.Info.StoreVersion)
	}
	if resp.Rows != 31 {
		t.Fatalf("post-mutation rows = %d, want 31", resp.Rows)
	}

	// And the fresh entry serves hits again at the new version.
	resp, err = eng.Do(context.Background(), Request{Query: q, Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Info.Hit || resp.Rows != 31 {
		t.Fatalf("hit=%v rows=%d after refill", resp.Info.Hit, resp.Rows)
	}
}

// TestUncachedAnswerCarriesItsStoreVersion: with the result cache off, and
// on EXPLAIN, a serving answer reports the store version of the data it was
// evaluated on, even when a write commits between the request's start and
// its evaluation. The test holds a read lock so that a writer queues behind
// it and the request's evaluation behind the writer, then lets both go.
// Whatever the interleaving, the rows the answer counts decide the version
// it must report.
func TestUncachedAnswerCarriesItsStoreVersion(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		rows        func(*Response) int
	}{
		{"cache off", `SELECT * WHERE { ?s <http://ex/p> ?o }`, func(r *Response) int { return r.Rows }},
		{"explain", `EXPLAIN SELECT * WHERE { ?s <http://ex/p> ?o }`, func(r *Response) int {
			var n int
			fmt.Sscanf(r.Results.Rows[0][0].Value, "%d rows", &n)
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := cacheTestStore(t)
			eng := NewEngine(st)
			before := st.Version()

			st.RLock()
			wrote := make(chan error, 1)
			go func() {
				wrote <- st.Add("http://g", rdf.Triple{S: rdf.NewIRI("http://ex/s99"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewInteger(99)})
			}()
			time.Sleep(10 * time.Millisecond) // the writer queues behind the read lock
			type answer struct {
				resp *Response
				err  error
			}
			answered := make(chan answer, 1)
			go func() {
				resp, err := eng.Do(context.Background(), Request{Query: tc.query, Serving: true})
				answered <- answer{resp, err}
			}()
			time.Sleep(10 * time.Millisecond) // the request starts and queues behind the writer
			st.RUnlock()
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			a := <-answered
			if a.err != nil {
				t.Fatal(a.err)
			}
			want := before
			switch n := tc.rows(a.resp); n {
			case 30:
			case 31:
				want = st.Version()
			default:
				t.Fatalf("answer counts %d rows, want 30 or 31", n)
			}
			if got := a.resp.Info.StoreVersion; got != want {
				t.Fatalf("answer reflecting %d rows reports store version %d, want %d", tc.rows(a.resp), got, want)
			}
		})
	}
}

func TestPlanCacheReusesParsedQueries(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(64, 0) // plans only; result caching off
	if eng.CacheEnabled() {
		t.Fatal("result cache should be off")
	}
	q := `SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 3`
	for i := 0; i < 3; i++ {
		if _, err := runQuery(eng, q); err != nil {
			t.Fatal(err)
		}
	}
	stats := eng.CacheStats()
	if stats.Plans.Misses != 1 || stats.Plans.Hits != 2 {
		t.Fatalf("plan stats = %+v", stats.Plans)
	}
	// A second text parses separately.
	if _, err := runQuery(eng, q+" OFFSET 1"); err != nil {
		t.Fatal(err)
	}
	if stats := eng.CacheStats(); stats.Plans.Misses != 2 {
		t.Fatalf("plan misses = %d, want 2", stats.Plans.Misses)
	}
}

// TestEnginePlansOncePerEpoch: an engine that never called EnableCache
// still parses a text once and plans it once per stats epoch and
// DisableReorder setting.
func TestEnginePlansOncePerEpoch(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	q := `SELECT ?s ?n WHERE { ?s <http://ex/p> ?o . ?s <http://ex/name> ?n }`
	run := func() *obs.Trace {
		t.Helper()
		tr := obs.NewTrace("t")
		if _, err := eng.Do(obs.WithTrace(context.Background(), tr), Request{Query: q}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	spans := func(tr *obs.Trace) (parse, plan bool) {
		for _, sp := range tr.Spans() {
			parse = parse || sp.Name == "parse"
			plan = plan || sp.Name == "plan"
		}
		return parse, plan
	}

	if parse, plan := spans(run()); !parse || !plan {
		t.Fatalf("first run: parse=%v plan=%v, want both", parse, plan)
	}
	tr := run()
	if got := tr.Note("plan_cache"); got != "hit" {
		t.Fatalf("second run: plan_cache=%q, want hit", got)
	}
	if parse, plan := spans(tr); parse || plan {
		t.Fatalf("second run: parse=%v plan=%v, want neither", parse, plan)
	}
	if p := eng.CacheStats().Plans; p.Misses != 1 || p.Hits != 1 {
		t.Fatalf("plan stats = %+v, want 1 miss and 1 hit", p)
	}

	eng.DisableReorder = true
	if parse, plan := spans(run()); parse || !plan {
		t.Fatalf("after DisableReorder: parse=%v plan=%v, want a plan and no parse", parse, plan)
	}
	if parse, plan := spans(run()); parse || plan {
		t.Fatalf("DisableReorder again: parse=%v plan=%v, want neither", parse, plan)
	}
	eng.DisableReorder = false

	before := st.StatsEpoch()
	for i := 0; i < 64; i++ { // more than 1/8 of the 60 triples, in the same graph
		if err := st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/t%02d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st.StatsEpoch() == before {
		t.Fatal("growing the store by more than 1/8 did not move the stats epoch")
	}
	tr = run()
	if parse, plan := spans(tr); parse || !plan {
		t.Fatalf("after the epoch moved: parse=%v plan=%v, want a plan and no parse", parse, plan)
	}
	if got, want := tr.Note("stats_epoch"), fmt.Sprint(st.StatsEpoch()); got != want {
		t.Fatalf("stats_epoch=%s, want %s", got, want)
	}
	if p := eng.CacheStats().Plans; p.Misses != 1 {
		t.Fatalf("plan misses = %d, want 1: the text is parsed once", p.Misses)
	}
}

func TestQueryServingResultBudgetRejectsOversized(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(64, 10) // budget below the 30-row result
	q := `SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 5`
	for i := 0; i < 2; i++ {
		resp, err := eng.Do(context.Background(), Request{Query: q, Serving: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Info.Hit {
			t.Fatal("oversized result must not be cached")
		}
		if resp.Rows != 5 {
			t.Fatalf("rows = %d", resp.Rows)
		}
	}
	// A small enough result still caches.
	small := `SELECT * WHERE { ?s <http://ex/p> ?o . FILTER(?o < 3) }`
	if _, err := eng.Do(context.Background(), Request{Query: small, Serving: true}); err != nil {
		t.Fatal(err)
	}
	if resp, err := eng.Do(context.Background(), Request{Query: small, Serving: true}); err != nil {
		t.Fatal(err)
	} else if !resp.Info.Hit {
		t.Fatal("small result not cached")
	}
}
