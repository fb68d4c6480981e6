package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfframes/internal/client"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

func explainTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := store.New()
	for i := 0; i < 20; i++ {
		if err := st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://s/%d", i)),
			P: rdf.NewIRI("http://p/name"),
			O: rdf.NewLiteral(fmt.Sprintf("n%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(sparql.NewEngine(st))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestExplainQueryParam(t *testing.T) {
	ts := explainTestServer(t)
	q := url.QueryEscape(`SELECT ?s ?n WHERE { ?s <http://p/name> ?n }`)
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var rep sparql.ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 20 {
		t.Fatalf("rows = %d, want 20", rep.Rows)
	}
	if rep.Plan == nil || rep.Plan.Op != "select" {
		t.Fatalf("plan root = %+v", rep.Plan)
	}
	found := false
	for _, c := range rep.Plan.Children {
		if c.Op == "group" && len(c.Children) > 0 && c.Children[0].Op == "scan" {
			if c.Children[0].Actual != 20 {
				t.Fatalf("scan actual = %d, want 20", c.Children[0].Actual)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no scan node in plan: %+v", rep.Plan)
	}
}

func TestExplainBadQueryRejected(t *testing.T) {
	ts := explainTestServer(t)
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape("NOT SPARQL"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}

func TestClientExplain(t *testing.T) {
	ts := explainTestServer(t)
	c := client.NewHTTPClient(ts.URL+"/sparql", 0)
	rep, err := c.Explain(`SELECT ?s ?n WHERE { ?s <http://p/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 20 {
		t.Fatalf("rows = %d, want 20", rep.Rows)
	}
	if !strings.Contains(rep.Plan.Format(), "scan") {
		t.Fatalf("plan missing scan:\n%s", rep.Plan.Format())
	}
}

// TestExplainKeywordPaginatingClient asserts a client with pagination
// enabled fetches an EXPLAIN once, unpaged (a page would re-run the query),
// and finds the keyword by parsing, so a comment before it changes nothing.
func TestExplainKeywordPaginatingClient(t *testing.T) {
	ts := explainTestServer(t)
	c := client.NewHTTPClient(ts.URL+"/sparql", 5)
	for _, q := range []string{
		`EXPLAIN SELECT ?s ?n WHERE { ?s <http://p/name> ?n }`,
		"# note\nEXPLAIN SELECT ?s ?n WHERE { ?s <http://p/name> ?n }",
	} {
		res, err := c.Select(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res.Vars) != 1 || res.Vars[0] != "plan" {
			t.Fatalf("%q: vars = %v, want [plan]", q, res.Vars)
		}
		if len(res.Rows) < 3 {
			t.Fatalf("%q: plan rows = %d, want a full tree", q, len(res.Rows))
		}
	}
}

// TestExplainKeywordOverHTTP asserts the EXPLAIN keyword path works through
// the ordinary /sparql result flow (SPARQL JSON with a ?plan variable).
func TestExplainKeywordOverHTTP(t *testing.T) {
	ts := explainTestServer(t)
	c := client.NewHTTPClient(ts.URL+"/sparql", 0)
	res, err := c.Select(`EXPLAIN SELECT ?s ?n WHERE { ?s <http://p/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "plan" {
		t.Fatalf("vars = %v, want [plan]", res.Vars)
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].Value + "\n"
	}
	if !strings.Contains(joined, "scan ?s <http://p/name> ?n") {
		t.Fatalf("plan text missing scan line:\n%s", joined)
	}
}
