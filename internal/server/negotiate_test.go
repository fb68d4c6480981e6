package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"rdfframes/internal/sparql"
)

// TestResultsNegotiation: /sparql and /v1/features answer the table body
// when Accept lists it, compressed or not, and SPARQL-JSON otherwise —
// byte for byte what a request without Accept gets — including when the
// table body is listed with q=0 or the request asks for a trace. Both bodies
// hold the same rows, and a negotiated response says it varies by Accept.
func TestResultsNegotiation(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	const q = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 10 OFFSET 5`
	type answer struct {
		ctype string
		vary  []string
		body  []byte
	}
	fetch := func(route, accept string, gz bool, extra url.Values) answer {
		t.Helper()
		params := url.Values{"query": {q}}
		for k, v := range extra {
			params[k] = v
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+route+"?"+params.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := io.Reader(resp.Body)
		if gz {
			if body, err = gzip.NewReader(resp.Body); err != nil {
				t.Fatal(err)
			}
		}
		data, err := io.ReadAll(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v: %s", route, accept, resp.StatusCode, err, data)
		}
		return answer{resp.Header.Get("Content-Type"), resp.Header.Values("Vary"), data}
	}
	const table = sparql.TableMediaType
	clientAccept := table + ", application/sparql-results+json;q=0.9"
	for _, route := range []string{"/sparql", "/v1/features"} {
		plain := fetch(route, "", false, nil)
		if plain.ctype != "application/sparql-results+json" || !slices.Contains(plain.vary, "Accept") {
			t.Fatalf("%s without Accept: %q, Vary %q", route, plain.ctype, plain.vary)
		}
		want, err := sparql.ReadJSON(bytes.NewReader(plain.body))
		if err != nil {
			t.Fatal(err)
		}
		for _, accept := range []string{"application/sparql-results+json", "*/*", table + ";q=0", "text/csv, " + table + "; q=0.0"} {
			if got := fetch(route, accept, false, nil); got.ctype != plain.ctype || !bytes.Equal(got.body, plain.body) {
				t.Errorf("%s with Accept %q: %q, and the JSON differs: %v", route, accept, got.ctype, !bytes.Equal(got.body, plain.body))
			}
		}
		for _, gz := range []bool{false, true} {
			got := fetch(route, clientAccept, gz, nil)
			if got.ctype != table || !slices.Contains(got.vary, "Accept") {
				t.Fatalf("%s with the client's Accept, gzip %v: %q, Vary %q", route, gz, got.ctype, got.vary)
			}
			tab := sparql.NewTable()
			if err := tab.ReadTable(bytes.NewReader(got.body)); err != nil {
				t.Fatal(err)
			}
			if gotRes := tab.Results(); !slices.Equal(gotRes.Vars, want.Vars) || !slices.EqualFunc(gotRes.Rows, want.Rows, slices.Equal) {
				t.Errorf("%s: the table body holds %v, the JSON %v", route, gotRes, want)
			}
		}
	}
	traced := fetch("/sparql", clientAccept, false, url.Values{"trace": {"1"}})
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(traced.body, &doc); err != nil || traced.ctype != "application/sparql-results+json" || doc["trace"] == nil {
		t.Fatalf("a traced request answered %q without its trace member (%v)", traced.ctype, err)
	}
	if plain := fetch("/sparql", "", false, nil); !strings.HasPrefix(string(traced.body), string(plain.body[:len(plain.body)-1])) {
		t.Error("the traced body does not start with the untraced JSON")
	}
}
