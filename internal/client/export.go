package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/obs"
	"rdfframes/internal/sparql"
)

// Feature-extraction client surface: Export streams a query result as CSV
// (the server never materializes the full frame, and neither does the
// client — bytes flow straight into the caller's writer), and Features
// fetches store-side topology features for the nodes a query selects.
// Both exist on HTTPClient and Direct, so a training job can swap a
// remote endpoint for an embedded store unchanged.

// routeEndpoint resolves a sibling route URL: the explicit override when
// set, otherwise derived from the query endpoint by swapping its route
// (the same rule updateEndpoint uses).
func (c *HTTPClient) routeEndpoint(explicit, route string) string {
	if explicit != "" {
		return explicit
	}
	for _, r := range []string{"/v1/query", "/sparql"} {
		if strings.HasSuffix(c.Endpoint, r) {
			return strings.TrimSuffix(c.Endpoint, r) + route
		}
	}
	return strings.TrimRight(c.Endpoint, "/") + route
}

// Export streams the query's full result from /v1/export into w as CSV
// (header row first) and returns the bytes written. The stream is not
// paginated — the server holds only one chunk at a time — and not retried
// mid-stream: a connection cut after the first byte surfaces as an error
// with partial output in w.
func (c *HTTPClient) Export(query string, w io.Writer) (int64, error) {
	req, err := c.newRequest(c.routeEndpoint(c.ExportURL, "/v1/export"), url.Values{"query": {query}})
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Request-ID", obs.NewRequestID())
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("client: export returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return io.Copy(w, resp.Body)
}

// Features fetches topology features (in/out degree, bounded 2-hop
// neighborhood counts) for the distinct nodes bound to nodeVar in the
// query's solutions. nodeVar empty selects the first projected variable;
// hopCap bounds each 2-hop count (0 = server default, -1 unbounded). The
// result columns are sparql.FeatureVars. UsePost sends the parameters as a
// form, as Select and Export do.
func (c *HTTPClient) Features(query, nodeVar string, hopCap int) (*sparql.Results, error) {
	params := url.Values{"query": {query}}
	if nodeVar != "" {
		params.Set("var", nodeVar)
	}
	if hopCap != 0 {
		params.Set("cap", strconv.Itoa(hopCap))
	}
	req, err := c.newRequest(c.routeEndpoint(c.FeaturesURL, "/v1/features"), params)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", obs.NewRequestID())
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("client: features returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	res, err := sparql.ReadJSON(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: decoding features: %w", err)
	}
	return res, nil
}

// Export streams the query's result into w as CSV, evaluating on the
// local engine through the same chunked encoder the server uses.
func (d *Direct) Export(query string, w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	stream := dataframe.NewCSVStream(cw, 0, false)
	if _, err := d.Engine.Export(context.Background(), query, stream); err != nil {
		return cw.n, err
	}
	if err := stream.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Features computes topology features on the local engine; see
// HTTPClient.Features for the parameters.
func (d *Direct) Features(query, nodeVar string, hopCap int) (*sparql.Results, error) {
	return d.Engine.Features(context.Background(), sparql.FeatureSpec{
		Query: query, Var: nodeVar, HopCap: hopCap,
	})
}

// countingWriter counts bytes forwarded to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
