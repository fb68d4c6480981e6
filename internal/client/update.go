package client

import (
	"fmt"
	"net/http"
	"net/url"

	"rdfframes/internal/obs"
	"rdfframes/internal/sparql"
)

// Write-side client: HTTPClient.Update posts a SPARQL UPDATE request to the
// endpoint's /v1/update route with the same retry policy reads use. Writes
// are only safe to retry because every call mints one idempotency token
// (X-Idempotency-Key) and reuses it across its retries: the server's WAL
// dedups the token, so a retry of a request that was applied — but whose
// response was lost — answers deduped=true instead of applying twice.

// UpdateEndpoint resolves the update URL: the explicit field when set,
// otherwise derived from the query endpoint by swapping its route for
// /v1/update.
func (c *HTTPClient) updateEndpoint() string {
	return c.routeEndpoint(c.UpdateURL, "/v1/update")
}

// Update executes a SPARQL UPDATE request (INSERT DATA / DELETE DATA /
// DELETE WHERE) and returns the server's result: triples changed, the
// post-batch store version, the WAL sequence number, and whether the
// request deduplicated against an earlier delivery of the same call.
func (c *HTTPClient) Update(update string) (*sparql.UpdateResult, error) {
	// One idempotency token per logical update, reused across retries: the
	// server applies the batch at most once no matter how many attempts
	// reach it.
	token := obs.NewRequestID()
	var res *sparql.UpdateResult
	err := c.retry(func(reqID string) (retryInfo, error) {
		resp, ri, err := c.roundTrip("update", c.updateEndpoint(), url.Values{"update": {update}}, true, reqID,
			func(h http.Header) { h.Set("X-Idempotency-Key", token) })
		if err != nil {
			return ri, err
		}
		defer resp.Body.Close()
		if err := readJSON(resp, &res); err != nil {
			// The request may have been applied; the retry reuses the
			// token, so re-sending is safe either way.
			ri.retryable = true
			return ri, fmt.Errorf("client: decoding update result: %w", err)
		}
		return ri, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
