package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// newCachedServer builds a server with the serving caches enabled over a
// store seeded with rows triples.
func newCachedServer(t *testing.T, rows int) (*httptest.Server, *store.Store) {
	t.Helper()
	st := store.New()
	for i := 0; i < rows; i++ {
		err := st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%03d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng := sparql.NewEngine(st)
	eng.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

func body(t *testing.T, ts *httptest.Server, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerCacheHeaders(t *testing.T) {
	ts, _ := newCachedServer(t, 10)
	q := `SELECT * WHERE { ?s <http://ex/p> ?o }`

	resp, _ := body(t, ts, q)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	v := resp.Header.Get("X-Store-Version")
	if v == "" || v == "0" {
		t.Fatalf("X-Store-Version = %q", v)
	}
	resp, _ = body(t, ts, q)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Store-Version"); got != v {
		t.Fatalf("hit X-Store-Version = %q, want %q", got, v)
	}

	// An uncached server advertises the store version but no cache state.
	plain, _ := newTestServer(t, 0)
	resp, _ = body(t, plain, q)
	if resp.Header.Get("X-Cache") != "" {
		t.Fatal("uncached server sent X-Cache")
	}
	if resp.Header.Get("X-Store-Version") == "" {
		t.Fatal("uncached server omitted X-Store-Version")
	}
}

// TestServerCachedResponsesByteIdentical compares every response of a
// cached server (both the filling miss and the subsequent hit) against a
// cache-less server over the same store: the SPARQL JSON must be
// byte-identical, including paginated page requests served by slicing.
func TestServerCachedResponsesByteIdentical(t *testing.T) {
	cached, st := newCachedServer(t, 40)
	plainSrv := httptest.NewServer(New(sparql.NewEngine(st)).Handler())
	t.Cleanup(plainSrv.Close)

	queries := []string{
		`SELECT * WHERE { ?s <http://ex/p> ?o }`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7 OFFSET 7`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7 OFFSET 39`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7 OFFSET 100`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?s LIMIT 3`,
	}
	for _, q := range queries {
		_, want := body(t, plainSrv, q)
		_, first := body(t, cached, q)
		_, second := body(t, cached, q)
		if string(first) != string(want) {
			t.Fatalf("%s: miss body differs\n got: %s\nwant: %s", q, first, want)
		}
		if string(second) != string(want) {
			t.Fatalf("%s: hit body differs\n got: %s\nwant: %s", q, second, want)
		}
	}
}

func TestServerGzipResponses(t *testing.T) {
	ts, _ := newCachedServer(t, 20)
	q := `SELECT * WHERE { ?s <http://ex/p> ?o }`
	_, plain := body(t, ts, q)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	// A manual Accept-Encoding disables the transport's transparent
	// decompression, so the raw gzip stream is observable here.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q", got)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(decoded) != string(plain) {
		t.Fatal("gzip body does not decode to the identity response")
	}

	// q=0 must opt out.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
	req2.Header.Set("Accept-Encoding", "gzip;q=0")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.Header.Get("Content-Encoding") == "gzip" {
		t.Fatal("server gzipped despite q=0")
	}
}

// TestServerContentLength: a page streams out of the encoder, whether the
// result was cached or not, so a response cannot state its length, and a
// compressed one must not state the uncompressed length.
func TestServerContentLength(t *testing.T) {
	cached, st := newCachedServer(t, 40) // 40 rows: past net/http's own 2 KiB length sniffing
	plainSrv := httptest.NewServer(New(sparql.NewEngine(st)).Handler())
	t.Cleanup(plainSrv.Close)
	get := func(ts *httptest.Server, encoding, extra string) (int64, int) {
		t.Helper()
		q := url.QueryEscape(`SELECT * WHERE { ?s <http://ex/p> ?o }`)
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+q+extra, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", encoding)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.ContentLength, len(data)
	}
	for i, ts := range []*httptest.Server{cached, cached, plainSrv} { // miss, hit, no cache
		if length, _ := get(ts, "identity", ""); length != -1 {
			t.Errorf("streamed response %d states Content-Length %d", i, length)
		}
	}
	if length, n := get(cached, "gzip", ""); length != -1 && length != int64(n) {
		t.Errorf("gzip response: Content-Length %d for %d compressed bytes", length, n)
	}
	if length, _ := get(cached, "identity", "&trace=1"); length != -1 {
		t.Errorf("traced response states Content-Length %d", length)
	}
}

func TestServerStatsReportsCacheCounters(t *testing.T) {
	ts, _ := newCachedServer(t, 10)
	q := `SELECT * WHERE { ?s <http://ex/p> ?o }`
	body(t, ts, q)
	body(t, ts, q)
	body(t, ts, q)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		StoreVersion uint64 `json:"store_version"`
		Cache        struct {
			Enabled bool `json:"enabled"`
			Plans   struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"plans"`
			Results struct {
				Hits      uint64 `json:"hits"`
				Misses    uint64 `json:"misses"`
				Evictions uint64 `json:"evictions"`
			} `json:"results"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cache.Enabled {
		t.Fatal("cache not reported enabled")
	}
	if stats.Cache.Results.Misses != 1 || stats.Cache.Results.Hits != 2 {
		t.Fatalf("result counters = %+v", stats.Cache.Results)
	}
	if stats.Cache.Plans.Misses != 1 || stats.Cache.Plans.Hits != 2 {
		t.Fatalf("plan counters = %+v", stats.Cache.Plans)
	}
	if stats.StoreVersion == 0 {
		t.Fatal("store version missing")
	}
}

// TestServerNoStaleHitsUnderConcurrentWrites hammers a cached endpoint
// with parallel repeated queries while a writer goroutine mutates the
// store. The invariants, checked under -race:
//
//  1. two responses carrying the same X-Store-Version agree exactly on
//     the row count (same version => identical data, cached or not);
//  2. row counts never decrease as the version advances (the writer only
//     inserts);
//  3. after the writer finishes, the very next query — and a repeat of it
//     that hits the cache — both reflect every mutation.
func TestServerNoStaleHitsUnderConcurrentWrites(t *testing.T) {
	const initial, writes = 50, 150
	ts, st := newCachedServer(t, initial)
	q := `SELECT * WHERE { ?s <http://ex/p> ?o }`

	fetch := func() (version string, rows int, cache string) {
		resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Error(err)
			return "", -1, ""
		}
		defer resp.Body.Close()
		res, err := sparql.ReadJSON(resp.Body)
		if err != nil {
			t.Error(err)
			return "", -1, ""
		}
		return resp.Header.Get("X-Store-Version"), len(res.Rows), resp.Header.Get("X-Cache")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			err := st.Add(g, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://ex/w%03d", i)),
				P: rdf.NewIRI("http://ex/p"),
				O: rdf.NewInteger(int64(1000 + i)),
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var mu sync.Mutex
	countByVersion := map[string]int{}
	var observed []struct {
		version string
		rows    int
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, rows, _ := fetch()
				if rows < 0 {
					return
				}
				mu.Lock()
				if prev, ok := countByVersion[v]; ok && prev != rows {
					t.Errorf("version %s served both %d and %d rows", v, prev, rows)
				}
				countByVersion[v] = rows
				observed = append(observed, struct {
					version string
					rows    int
				}{v, rows})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Monotonicity across versions: X-Store-Version values are decimal
	// counters; higher version must never have fewer rows.
	versions := make([]string, 0, len(countByVersion))
	for v := range countByVersion {
		versions = append(versions, v)
	}
	for _, a := range versions {
		for _, b := range versions {
			var va, vb uint64
			fmt.Sscan(a, &va)
			fmt.Sscan(b, &vb)
			if va < vb && countByVersion[a] > countByVersion[b] {
				t.Fatalf("version %s has %d rows but later version %s has %d",
					a, countByVersion[a], b, countByVersion[b])
			}
		}
	}

	// The writer has finished (happens-before via wg.Wait): the next
	// response must reflect every insert, and so must a cache hit for it.
	_, rows, _ := fetch()
	if rows != initial+writes {
		t.Fatalf("post-mutation rows = %d, want %d", rows, initial+writes)
	}
	_, rows, cache := fetch()
	if rows != initial+writes {
		t.Fatalf("post-mutation repeat rows = %d, want %d", rows, initial+writes)
	}
	if cache != "hit" {
		t.Fatalf("post-mutation repeat X-Cache = %q, want hit", cache)
	}
}

// TestServerParallelEngineUnderConcurrentWrites is the morsel-pool variant
// of the stale-hit hammer: the engine evaluates with 4 intra-query workers
// over a store large enough to cross every parallel threshold (partitioned
// base scans, row-morsel joins, parallel DISTINCT and decode) while a
// writer goroutine inserts — the -race configuration that would catch a
// pool worker touching store or cache state it must not. Invariants: same
// X-Store-Version responses agree on row count, and once writes quiesce
// the parallel endpoint's response is byte-identical to a serial engine's
// over the same store.
func TestServerParallelEngineUnderConcurrentWrites(t *testing.T) {
	const initial, writes = 9000, 400
	st := store.New()
	for i := 0; i < initial; i++ {
		err := st.Add(g, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%05d", i%3000)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://ex/o%03d", i%97)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng := sparql.NewEngine(st)
	eng.Parallelism = 4
	eng.EnableCache(sparql.DefaultPlanCacheEntries, sparql.DefaultResultCacheRows)
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)

	queries := []string{
		`SELECT * WHERE { ?s <http://ex/p> ?o }`,
		`SELECT DISTINCT ?o WHERE { ?s <http://ex/p> ?o }`,
		`SELECT * WHERE { ?s <http://ex/p> ?o . ?s <http://ex/p> ?o2 } LIMIT 5000`,
	}
	fetch := func(q string) (version string, rows int) {
		resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Error(err)
			return "", -1
		}
		defer resp.Body.Close()
		res, err := sparql.ReadJSON(resp.Body)
		if err != nil {
			t.Error(err)
			return "", -1
		}
		return resp.Header.Get("X-Store-Version"), len(res.Rows)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			err := st.Add(g, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://ex/w%04d", i)),
				P: rdf.NewIRI("http://ex/p"),
				O: rdf.NewIRI(fmt.Sprintf("http://ex/o%03d", i%97)),
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var mu sync.Mutex
	countByVersion := map[string]int{}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(r+i)%len(queries)]
				v, rows := fetch(q)
				if rows < 0 {
					return
				}
				mu.Lock()
				key := v + "|" + q
				if prev, ok := countByVersion[key]; ok && prev != rows {
					t.Errorf("version %s served both %d and %d rows for %s", v, prev, rows, q)
				}
				countByVersion[key] = rows
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()

	serial := sparql.NewEngine(st)
	serial.Parallelism = 1
	for _, q := range queries {
		want, err := serial.Do(context.Background(), sparql.Request{Query: q, JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		_, gb := body(t, ts, q)
		if string(want.Body) != string(gb) {
			t.Fatalf("after writes quiesced, parallel response for %s differs from serial evaluation", q)
		}
	}
}
