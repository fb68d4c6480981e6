// Package client provides SPARQL query clients for RDFFrames: an HTTP
// client speaking the SPARQL 1.1 Protocol with transparent result
// pagination (the paper's Executor component), and an in-process client for
// embedding the engine directly.
//
// Both clients expose the same read surface — Select for paginated tabular
// results, Frame for the same results as a dataframe, Export for streaming a
// result as CSV with bounded memory, and Features for store-side topology
// feature matrices — so code written against one runs against the other.
// The HTTP client additionally offers Update, retry-safe through per-call
// idempotency tokens.
package client

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/obs"
	"rdfframes/internal/sparql"
)

// Client executes SPARQL SELECT queries and returns complete results, as
// decoded solutions (Select) or as a dataframe (Frame).
type Client interface {
	Select(query string) (*sparql.Results, error)
	Frame(query string) (*dataframe.DataFrame, error)
}

// HTTPClient talks to a SPARQL endpoint over HTTP. It retrieves results in
// chunks of PageSize rows (re-issuing the query wrapped with LIMIT/OFFSET)
// so that endpoint-side row caps and timeouts do not truncate results, and
// retries transient failures.
type HTTPClient struct {
	// Endpoint is the query URL, e.g. "http://host:port/sparql".
	Endpoint string
	// PageSize is the pagination chunk size; 0 disables pagination.
	PageSize int
	// MaxRetries bounds retries per chunk on transient errors (default 2).
	// It is the legacy knob: when Retry is nil, the client uses a default
	// RetryPolicy with MaxAttempts = MaxRetries + 1.
	MaxRetries int
	// Retry, when non-nil, fully specifies the retry schedule — attempt
	// cap, exponential backoff, jitter, and Retry-After handling — and
	// takes precedence over MaxRetries.
	Retry *RetryPolicy
	// HTTP is the underlying client. NewHTTPClient installs a 30s-timeout
	// default; a literal-constructed client with a nil HTTP falls back to a
	// new default per call.
	HTTP *http.Client
	// UsePost selects POST form encoding instead of GET (useful for
	// queries exceeding URL length limits).
	UsePost bool
	// UpdateURL is the SPARQL UPDATE endpoint. Empty derives it from
	// Endpoint by swapping the query route for /v1/update (see Update).
	UpdateURL string
	// ExportURL is the streaming CSV export endpoint. Empty derives it
	// from Endpoint by swapping the query route for /v1/export.
	ExportURL string
	// FeaturesURL is the topology-features endpoint. Empty derives it from
	// Endpoint by swapping the query route for /v1/features.
	FeaturesURL string
	// Context, when non-nil, bounds every request this client issues:
	// cancelling it aborts in-flight requests (and, against this module's
	// server, the evaluation behind them) and stops retry loops. Callers
	// that abandon long-running work (the bench harness's wall-clock
	// cutoff) cancel it so abandoned queries do not run to completion.
	Context context.Context

	// stats records the outcome of the most recent chunk fetch (see
	// LastStats). Allocated by NewHTTPClient and shared by WithContext
	// copies; nil (a literal-constructed client) disables recording.
	stats *clientStats
}

// RequestStats describes the most recent chunk fetch the client performed:
// how many attempts it took, the last Retry-After hint the endpoint sent,
// the X-Request-ID the fetch carried (generated per chunk, reused across
// its retries, and echoed by the server — grep server logs and the
// slow-query log for it), and the final HTTP status.
type RequestStats struct {
	// Attempts is the number of HTTP attempts the fetch used (1 = first
	// try succeeded).
	Attempts int
	// RetryAfter is the last Retry-After hint observed (0 = none seen).
	RetryAfter time.Duration
	// RequestID is the X-Request-ID header the fetch sent and the server
	// echoed.
	RequestID string
	// Status is the final attempt's HTTP status (0 = transport error).
	Status int
}

// clientStats holds LastStats behind its own lock so WithContext's shallow
// copy shares the record instead of copying a mutex.
type clientStats struct {
	mu   sync.Mutex
	last RequestStats
}

// LastStats returns the outcome of the client's most recent chunk fetch.
// Paginated Selects overwrite it per chunk, so after a Select it describes
// the final chunk. Zero for a client not built via NewHTTPClient.
func (c *HTTPClient) LastStats() RequestStats {
	if c.stats == nil {
		return RequestStats{}
	}
	c.stats.mu.Lock()
	defer c.stats.mu.Unlock()
	return c.stats.last
}

func (c *HTTPClient) recordStats(rs RequestStats) {
	if c.stats == nil {
		return
	}
	c.stats.mu.Lock()
	c.stats.last = rs
	c.stats.mu.Unlock()
}

// WithContext returns a shallow copy of the client whose requests are
// bounded by ctx.
func (c *HTTPClient) WithContext(ctx context.Context) *HTTPClient {
	cp := *c
	cp.Context = ctx
	return &cp
}

// context resolves the client's request context.
func (c *HTTPClient) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// NewHTTPClient returns a client for the endpoint with pagination enabled
// at the given page size.
func NewHTTPClient(endpoint string, pageSize int) *HTTPClient {
	return &HTTPClient{
		Endpoint: endpoint,
		PageSize: pageSize,
		HTTP:     defaultHTTPClient(),
		stats:    &clientStats{},
	}
}

func defaultHTTPClient() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

func (c *HTTPClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient()
}

// Select executes the query, paginating transparently, and returns the full
// result set. Pagination continues while either a chunk comes back full or
// the endpoint flags it truncated (X-Truncated, the server-side MaxRows
// cap), so a server cap smaller than the client's page size still yields
// complete results. Even with PageSize <= 0 (pagination off) a truncated
// first response triggers LIMIT/OFFSET resumption — Select never knowingly
// returns a partial result.
func (c *HTTPClient) Select(query string) (*sparql.Results, error) {
	if sparql.IsExplainQuery(query) {
		// EXPLAIN is only legal at top level, so the pagination wrapper
		// would make it unparsable — and re-running it per page would
		// re-execute the query anyway. Plans are answered in one fetch; a
		// server row cap small enough to cut a plan is surfaced as an error
		// rather than a silently partial tree (use Explain for the
		// structured, uncapped report).
		res, truncated, err := c.fetch(query)
		if err == nil && truncated {
			return nil, fmt.Errorf("client: explain plan truncated by the server row cap; use Explain for the full report")
		}
		return res, err
	}
	if c.PageSize <= 0 {
		res, truncated, err := c.fetch(query)
		if err != nil || !truncated {
			return res, err
		}
		// Pagination is off but the endpoint cut the result anyway: resume
		// with LIMIT/OFFSET pages sized to the cap the server just revealed,
		// rather than silently returning a partial result.
		if len(res.Rows) == 0 {
			return res, nil
		}
		return c.paginateFrom(query, res, len(res.Rows), len(res.Rows))
	}
	return c.paginateFrom(query, nil, c.PageSize, 0)
}

// Frame is Select returned as a dataframe.
func (c *HTTPClient) Frame(query string) (*dataframe.DataFrame, error) {
	res, err := c.Select(query)
	if err != nil {
		return nil, err
	}
	return dataframe.FromRows(res.Vars, res.Rows), nil
}

// paginateFrom retrieves the remainder of query's results in pages of
// pageSize rows starting at offset, appending onto seed (the rows already
// in hand, nil when starting fresh).
func (c *HTTPClient) paginateFrom(query string, seed *sparql.Results, pageSize, offset int) (*sparql.Results, error) {
	all := seed
	for {
		chunkQuery := paginate(query, pageSize, offset)
		chunk, truncated, err := c.fetch(chunkQuery)
		if err != nil {
			return nil, fmt.Errorf("client: chunk at offset %d: %w", offset, err)
		}
		if all == nil {
			all = chunk
		} else {
			if len(chunk.Vars) != len(all.Vars) {
				return nil, fmt.Errorf("client: chunk at offset %d changed variables", offset)
			}
			all.Rows = append(all.Rows, chunk.Rows...)
		}
		if len(chunk.Rows) == 0 || (len(chunk.Rows) < pageSize && !truncated) {
			return all, nil
		}
		// Advance by rows actually received: a truncated chunk is shorter
		// than the page requested.
		offset += len(chunk.Rows)
	}
}

// retryPolicy resolves the effective policy: Retry when set, otherwise a
// default schedule whose attempt cap honors the legacy MaxRetries knob.
func (c *HTTPClient) retryPolicy() RetryPolicy {
	if c.Retry != nil {
		return c.Retry.withDefaults()
	}
	p := RetryPolicy{}.withDefaults()
	if c.MaxRetries > 0 {
		p.MaxAttempts = c.MaxRetries + 1
	}
	return p
}

func (c *HTTPClient) fetch(query string) (*sparql.Results, bool, error) {
	pol := c.retryPolicy()
	// One request id per chunk, reused across its retries, so all attempts
	// of this fetch correlate to one line group in the server's logs.
	rs := RequestStats{RequestID: obs.NewRequestID()}
	defer func() { c.recordStats(rs) }()
	var lastErr error
	var hint time.Duration
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(c.context(), pol.delay(attempt-1, hint)); err != nil {
				// The caller abandoned the work mid-backoff.
				return nil, false, err
			}
		}
		if err := c.context().Err(); err != nil {
			// The caller abandoned the work; retrying cannot succeed.
			return nil, false, err
		}
		rs.Attempts = attempt
		res, truncated, ri, err := c.fetchOnce(query, rs.RequestID)
		rs.Status = ri.status
		if ri.retryAfter > 0 {
			rs.RetryAfter = ri.retryAfter
		}
		if err == nil {
			return res, truncated, nil
		}
		lastErr = err
		if !ri.retryable {
			return nil, false, err
		}
		hint = ri.retryAfter
	}
	return nil, false, fmt.Errorf("client: giving up after retries: %w", lastErr)
}

func (c *HTTPClient) fetchOnce(query, reqID string) (res *sparql.Results, truncated bool, ri retryInfo, err error) {
	var req *http.Request
	if c.UsePost {
		form := url.Values{"query": {query}}
		req, err = http.NewRequestWithContext(c.context(), http.MethodPost, c.Endpoint,
			strings.NewReader(form.Encode()))
		if req != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		req, err = http.NewRequestWithContext(c.context(), http.MethodGet,
			c.Endpoint+"?query="+url.QueryEscape(query), nil)
	}
	if err != nil {
		return nil, false, retryInfo{}, err
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// A cancelled context is the caller's decision, not a transient
		// endpoint failure.
		return nil, false, retryInfo{retryable: c.context().Err() == nil}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("client: endpoint returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
		// 5xx is transient; so is 429 — an admission-controlled endpoint
		// shedding load expects the client back after its Retry-After.
		retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		return nil, false, retryInfo{retryable: retryable, retryAfter: retryAfterHint(resp), status: resp.StatusCode}, err
	}
	ri.status = resp.StatusCode
	// Go's default transport negotiates and decompresses gzip by itself
	// (and then hides the header); a Content-Encoding that is still
	// visible means a custom client or explicit Accept-Encoding was used,
	// so decode here to keep compression transparent to callers.
	body := io.Reader(resp.Body)
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return nil, false, retryInfo{retryable: true, status: resp.StatusCode}, fmt.Errorf("client: gzip response: %w", err)
		}
		defer gz.Close()
		body = gz
	}
	r, err := sparql.ReadJSON(body)
	if err != nil {
		// Covers both malformed JSON and bodies cut mid-stream by a
		// dropped connection: the next attempt re-fetches the whole chunk.
		return nil, false, retryInfo{retryable: true, status: resp.StatusCode}, fmt.Errorf("client: decoding results: %w", err)
	}
	return r, resp.Header.Get("X-Truncated") == "true", ri, nil
}

// Explain asks the endpoint for the query's optimized execution plan
// (?explain=1): the plan tree with estimated vs actual cardinalities, as
// produced by the engine's cost-based planner. The query is executed once
// on the server to record actual cardinalities; results are not returned.
func (c *HTTPClient) Explain(query string) (*sparql.ExplainReport, error) {
	req, err := http.NewRequestWithContext(c.context(), http.MethodGet,
		c.Endpoint+"?explain=1&query="+url.QueryEscape(query), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("client: explain returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep sparql.ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("client: decoding explain report: %w", err)
	}
	return &rep, nil
}

// paginate wraps a query as a subquery with LIMIT/OFFSET, hoisting PREFIX
// declarations to the outer query so the wrapped body stays valid.
func paginate(query string, limit, offset int) string {
	prologue, body := splitPrologue(query)
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("SELECT * WHERE {\n{\n")
	sb.WriteString(body)
	sb.WriteString("\n}\n}")
	fmt.Fprintf(&sb, " LIMIT %d OFFSET %d", limit, offset)
	return sb.String()
}

// splitPrologue separates leading PREFIX declarations from the query body.
func splitPrologue(query string) (prologue, body string) {
	rest := query
	var sb strings.Builder
	for {
		trimmed := strings.TrimLeft(rest, " \t\r\n")
		if len(trimmed) < 6 || !strings.EqualFold(trimmed[:6], "PREFIX") {
			return sb.String(), trimmed
		}
		// A prefix declaration ends at the closing '>' of its IRI.
		end := strings.Index(trimmed, ">")
		if end < 0 {
			return sb.String(), trimmed
		}
		sb.WriteString(trimmed[:end+1])
		sb.WriteByte('\n')
		rest = trimmed[end+1:]
	}
}

// Direct is an in-process client evaluating queries on a local engine. It
// implements the same interface as HTTPClient so callers can swap a remote
// endpoint for an embedded store.
type Direct struct {
	Engine *sparql.Engine
}

// NewDirect returns an in-process client over the engine.
func NewDirect(engine *sparql.Engine) *Direct { return &Direct{Engine: engine} }

// Select evaluates the query directly on the engine through the
// consolidated Do entry point.
func (d *Direct) Select(query string) (*sparql.Results, error) {
	resp, err := d.Engine.Do(context.Background(), sparql.Request{Query: query})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Frame evaluates the query on the engine and hands the frame its compact
// result as is: the cells and term table the evaluation produced, with no
// decoded copy in between.
func (d *Direct) Frame(query string) (*dataframe.DataFrame, error) {
	resp, err := d.Engine.Stream(context.Background(), sparql.Request{Query: query})
	if err != nil {
		return nil, err
	}
	vars, terms, cells := resp.Table()
	return dataframe.FromTable(vars, terms, cells, resp.Rows), nil
}
