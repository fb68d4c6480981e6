package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// TestCachedPageAllocs pins the allocations of one cached /sparql page
// served through Handler() with metrics enabled, in each body and
// encoding. The request pipeline every data route shares runs on this
// path and a cache hit does little else, so an allocation the pipeline
// gains shows here one for one. The counts include building the request
// and the recorder.
func TestCachedPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	st := store.New()
	for i := 0; i < 40; i++ {
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
	srv := New(eng)
	srv.EnableMetrics(obs.NewRegistry())
	handler := srv.Handler()
	target := "/sparql?query=" + url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 20 OFFSET 10`)

	for _, tc := range []struct {
		name           string
		accept, encode string
		max            float64
	}{
		{"json", "", "", 40},
		{"json gzip", "", "gzip", 47},
		{"table", sparql.TableMediaType, "", 43},
		{"table gzip", sparql.TableMediaType, "gzip", 49},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func() *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodGet, target, nil)
				if tc.accept != "" {
					req.Header.Set("Accept", tc.accept)
				}
				if tc.encode != "" {
					req.Header.Set("Accept-Encoding", tc.encode)
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d", rec.Code)
				}
				return rec
			}
			serve() // fills the cache and the gzip writer free list
			if rec := serve(); rec.Header().Get("X-Cache") != "hit" {
				t.Fatalf("X-Cache %q, want hit", rec.Header().Get("X-Cache"))
			}
			got := testing.AllocsPerRun(50, func() { serve() })
			t.Logf("%.0f allocations per cached page", got)
			if got > tc.max {
				t.Errorf("%.0f allocations per cached page, want at most %.0f", got, tc.max)
			}
		})
	}
}
