package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"rdfframes/internal/sparql"
)

func TestExportEndpointStreamsCSV(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	q := `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	resp, err := http.Get(ts.URL + "/v1/export?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 26 { // header + 25 triples
		t.Fatalf("got %d lines, want 26", len(lines))
	}
	if lines[0] != "s,o" {
		t.Fatalf("header %q, want s,o", lines[0])
	}
}

func TestExportEndpointPost(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.PostForm(ts.URL+"/v1/export", url.Values{
		"query": {`SELECT ?s WHERE { ?s <http://ex/p> ?o }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestExportEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	for name, target := range map[string]string{
		"bad query":          "/v1/export?query=" + url.QueryEscape("SELECT ?s WHERE {"),
		"missing query":      "/v1/export",
		"unsupported format": "/v1/export?format=arrow&query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"),
	} {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestFeaturesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	q := `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	resp, err := http.Get(ts.URL + "/v1/features?var=s&cap=8&query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res, err := sparql.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != len(sparql.FeatureVars) {
		t.Fatalf("vars %v, want %v", res.Vars, sparql.FeatureVars)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("got %d nodes, want 25", len(res.Rows))
	}
	// Every subject has exactly one outgoing triple and no incoming ones.
	for _, row := range res.Rows {
		if row[1].Value != "1" || row[2].Value != "0" {
			t.Fatalf("node %s: out=%s in=%s, want 1/0", row[0], row[1].Value, row[2].Value)
		}
	}
}

// A cap larger than any neighborhood answers what cap=-1 (unbounded)
// answers: the server never sizes memory by the cap a client sends.
func TestFeaturesEndpointHugeCap(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	fetch := func(hopCap string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/features?cap=" + hopCap + "&query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cap=%s: status %d: %s", hopCap, resp.StatusCode, body)
		}
		return body
	}
	want := fetch("-1")
	for _, hopCap := range []string{"1000000000", "1099511627776", "9223372036854775807"} {
		if got := fetch(hopCap); !bytes.Equal(got, want) {
			t.Fatalf("cap=%s:\n got %s\nwant %s", hopCap, got, want)
		}
	}
}

// TestFeaturesEndpointNegotiatesGzip: /v1/features goes through the same
// response writer as /v1/query, so it compresses when asked and the
// decompressed bytes are the plain response's.
func TestFeaturesEndpointNegotiatesGzip(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	target := ts.URL + "/v1/features?var=s&query=" + url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	fetch := func(acceptEncoding string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, plain := fetch("")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("unasked Content-Encoding %q", enc)
	}
	resp, packed := fetch("gzip")
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	gz, err := gzip.NewReader(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	unpacked, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unpacked, plain) || len(plain) == 0 {
		t.Fatalf("gunzipped body (%d bytes) differs from the plain one (%d bytes)", len(unpacked), len(plain))
	}
}

func TestFeaturesEndpointBadVar(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	q := `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	resp, err := http.Get(ts.URL + "/v1/features?var=missing&query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
