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
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/freelist"
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
// chunks of PageSize rows (re-issuing the query with its LIMIT/OFFSET
// narrowed to the chunk) so that endpoint-side row caps and timeouts do not
// truncate results, and retries transient failures.
type HTTPClient struct {
	// Endpoint is the query URL, e.g. "http://host:port/sparql".
	Endpoint string
	// PageSize is the pagination chunk size; 0 disables pagination.
	PageSize int
	// Retry, when non-nil, specifies the retry schedule of a chunk on
	// transient errors — attempt cap, exponential backoff, jitter, and
	// Retry-After handling; nil uses the default RetryPolicy.
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
	// StoreVersion is the X-Store-Version of a results page, the store
	// version it was evaluated on ("" when the endpoint sends none).
	StoreVersion string
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

// ErrStoreChanged reports a paged read that saw the store version move
// between its pages on every one of its tries: each page comes from some
// version, and a result stitched from two would miss or repeat rows.
var ErrStoreChanged = errors.New("client: the store changed between the pages of a read")

// versionRestarts is how many times a paged read starts over from its
// first page after the store version moved.
const versionRestarts = 3

// Select executes the query, paginating transparently, and returns the full
// result set. Pagination continues while either a chunk comes back full or
// the endpoint flags it truncated (X-Truncated, the server-side MaxRows
// cap), so a server cap smaller than the client's page size still yields
// complete results. Even with PageSize <= 0 (pagination off) a truncated
// first response triggers LIMIT/OFFSET resumption — Select never knowingly
// returns a partial result. Every page must come from the first page's
// store version (X-Store-Version, when the endpoint sends it): a read that
// sees it move starts over, up to versionRestarts times, and then fails
// with ErrStoreChanged.
func (c *HTTPClient) Select(query string) (*sparql.Results, error) {
	tab := sparql.ScratchTable()
	defer tab.Release()
	if err := c.read(query, tab); err != nil {
		return nil, err
	}
	return tab.Results(), nil
}

// Frame is Select returned as a dataframe: the frame adopts the table the
// pages were decoded into, with no rows of terms in between.
func (c *HTTPClient) Frame(query string) (*dataframe.DataFrame, error) {
	tab := sparql.NewTable()
	if err := c.read(query, tab); err != nil {
		return nil, err
	}
	vars, terms, cells := tab.Parts()
	return dataframe.FromTable(vars, terms, cells, tab.Len()), nil
}

// read decodes query's complete result into tab, one page at a time. The
// query is parsed only when the read has to cut a page (see pageOf).
func (c *HTTPClient) read(query string, tab *sparql.Table) error {
	var q *sparql.Query
	pageSize, offset := c.PageSize, 0
	first, restarts := "", 0 // the first page's store version
	for {
		page := query
		if pageSize > 0 {
			if q == nil {
				var err error
				if q, err = sparql.Parse(query); err != nil {
					return fmt.Errorf("client: paging the query: %w", err)
				}
			}
			switch {
			case q.Explain && offset > 0:
				// A plan cut by the server's row cap is refused rather than
				// returned partial (Explain has the full report).
				return fmt.Errorf("client: explain plan truncated by the server row cap; use Explain for the full report")
			case q.Explain:
				// One fetch: a page of an EXPLAIN would re-run the query.
				pageSize = 0
			case q.Limit >= 0 && offset > 0 && offset >= q.Limit:
				return nil
			default:
				page = pageOf(query, q, pageSize, offset)
			}
		}
		before := tab.Len()
		truncated, version, err := c.fetch(page, tab)
		if err != nil {
			if pageSize <= 0 {
				return err
			}
			return fmt.Errorf("client: chunk at offset %d: %w", offset, err)
		}
		if offset == 0 {
			first = version
		} else if version != first {
			if restarts++; restarts > versionRestarts {
				return fmt.Errorf("%w: version %q at the first page, %q at offset %d, after %d restarts", ErrStoreChanged, first, version, offset, versionRestarts)
			}
			tab.Reset()
			pageSize, offset = c.PageSize, 0
			continue
		}
		got := tab.Len() - before
		if got == 0 || (!truncated && (pageSize <= 0 || got < pageSize)) {
			return nil
		}
		if pageSize <= 0 {
			// Pagination is off but the endpoint cut the result anyway:
			// resume with LIMIT/OFFSET pages sized to the cap the server just
			// revealed, rather than silently returning a partial result.
			pageSize = got
		}
		// Advance by rows actually received: a truncated chunk is shorter
		// than the page requested.
		offset += got
	}
}

// pageOf is the page of q's result that starts offset rows into it and
// holds at most size rows: query's text up to its own LIMIT/OFFSET
// (Query.Window), then the page's window within the query's. FROM, ORDER
// BY and PREFIX stay where the query put them, and every page shares the
// result cache's entry for the text before the window. The clause starts
// a new line, so a comment ending the text cannot swallow it.
func pageOf(query string, q *sparql.Query, size, offset int) string {
	if q.Limit >= 0 {
		size = min(size, q.Limit-offset)
	}
	return fmt.Sprintf("%s\nLIMIT %d OFFSET %d", query[:q.Window], size, q.Offset+offset)
}

// retryPolicy resolves the effective policy: Retry with its unset fields
// defaulted, or the default schedule.
func (c *HTTPClient) retryPolicy() RetryPolicy {
	var p RetryPolicy
	if c.Retry != nil {
		p = *c.Retry
	}
	return p.withDefaults()
}

// fetch decodes one page into tab, retrying transient failures, and reports
// whether the endpoint cut the page short and the store version it sent.
func (c *HTTPClient) fetch(query string, tab *sparql.Table) (truncated bool, version string, err error) {
	err = c.retry(func(reqID string) (retryInfo, error) {
		resp, ri, err := c.roundTrip("endpoint", c.Endpoint, url.Values{"query": {query}}, c.UsePost, reqID, acceptResults)
		if err != nil {
			return ri, err
		}
		defer resp.Body.Close()
		if err := readResults(resp, tab); err != nil {
			// Covers malformed bodies and bodies cut mid-stream by a dropped
			// connection: the table drops the rows the failed decode
			// appended, and the next attempt re-fetches the whole chunk. A
			// page that changed the columns would change them again.
			ri.retryable = !errors.Is(err, sparql.ErrColumnsChanged)
			return ri, fmt.Errorf("client: decoding results: %w", err)
		}
		truncated = resp.Header.Get("X-Truncated") == "true"
		version = resp.Header.Get("X-Store-Version")
		ri.version = version
		return ri, nil
	})
	return truncated, version, err
}

// retry runs attempt until it succeeds, fails for good, or the retry policy
// runs out of attempts, waiting the policy's backoff — or the endpoint's
// Retry-After — between attempts. One request id serves all attempts, so
// they correlate to one line group in the server's logs; the outcome is
// recorded for LastStats.
func (c *HTTPClient) retry(attempt func(reqID string) (retryInfo, error)) error {
	pol := c.retryPolicy()
	rs := RequestStats{RequestID: obs.NewRequestID()}
	defer func() { c.recordStats(rs) }()
	var lastErr error
	var hint time.Duration
	for n := 1; n <= pol.MaxAttempts; n++ {
		if n > 1 {
			if err := sleepCtx(c.context(), pol.delay(n-1, hint)); err != nil {
				// The caller abandoned the work mid-backoff.
				return err
			}
		}
		if err := c.context().Err(); err != nil {
			// The caller abandoned the work; retrying cannot succeed.
			return err
		}
		rs.Attempts = n
		ri, err := attempt(rs.RequestID)
		rs.Status, rs.StoreVersion = ri.status, ri.version
		if ri.retryAfter > 0 {
			rs.RetryAfter = ri.retryAfter
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !ri.retryable {
			return err
		}
		hint = ri.retryAfter
	}
	return fmt.Errorf("client: giving up after retries: %w", lastErr)
}

// roundTrip sends one request to endpoint carrying params, with reqID as
// its X-Request-ID, and returns the response of a 200. The request is a
// POST form when post is set, a GET with params in the URL otherwise; it
// asks for gzip itself, so that the response is decompressed by openBody
// with a recycled reader rather than by the transport with a new one.
// header, when set, adds the request's own headers. A transport error or
// a non-200 comes back as an error, with whether it is worth retrying and
// the endpoint's Retry-After.
func (c *HTTPClient) roundTrip(what, endpoint string, params url.Values, post bool, reqID string, header func(http.Header)) (*http.Response, retryInfo, error) {
	method, target, body := http.MethodGet, endpoint, io.Reader(nil)
	if enc := params.Encode(); post {
		method, body = http.MethodPost, strings.NewReader(enc)
	} else {
		target += "?" + enc
	}
	req, err := http.NewRequestWithContext(c.context(), method, target, body)
	if err != nil {
		return nil, retryInfo{}, err
	}
	if post {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set("X-Request-ID", reqID)
	if header != nil {
		header(req.Header)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// A cancelled context is the caller's decision, not a transient
		// endpoint failure.
		return nil, retryInfo{retryable: c.context().Err() == nil}, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		// 5xx is transient; so is 429 — an admission-controlled endpoint
		// shedding load expects the client back after its Retry-After.
		retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		return nil, retryInfo{retryable: retryable, retryAfter: retryAfterHint(resp), status: resp.StatusCode},
			fmt.Errorf("client: %s returned %s: %s", what, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp, retryInfo{status: resp.StatusCode}, nil
}

// acceptResults sets the Accept header of a results request: the table
// body (sparql.TableMediaType) from an endpoint that speaks it, SPARQL-JSON
// from any other.
func acceptResults(h http.Header) {
	h.Set("Accept", sparql.TableMediaType+", application/sparql-results+json;q=0.9")
}

// gzipReaders recycles gzip readers across responses: a new one costs
// 44 KiB in 9 allocations, a reset one 4 KiB in 4.
var gzipReaders freelist.List[gzip.Reader]

// openBody returns resp's body with its Content-Encoding undone. Pass what
// it returns to closeBody when done.
func openBody(resp *http.Response) (io.Reader, error) {
	if !strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		return resp.Body, nil
	}
	if gz := gzipReaders.Get(); gz != nil {
		return gz, gz.Reset(resp.Body)
	}
	return gzip.NewReader(resp.Body)
}

// closeBody hands a gzip reader from openBody back to the free list.
func closeBody(body io.Reader) {
	if gz, ok := body.(*gzip.Reader); ok && gz != nil {
		gzipReaders.Put(gz)
	}
}

// readJSON decodes resp's JSON body into v.
func readJSON(resp *http.Response, v any) error {
	body, err := openBody(resp)
	defer closeBody(body)
	if err != nil {
		return err
	}
	return json.NewDecoder(body).Decode(v)
}

// readResults decodes a results response into tab, choosing the decoder by
// the response's Content-Type: a table body, or SPARQL-JSON.
func readResults(resp *http.Response, tab *sparql.Table) error {
	body, err := openBody(resp)
	defer closeBody(body)
	if err != nil {
		return err
	}
	if mt, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";"); strings.EqualFold(strings.TrimSpace(mt), sparql.TableMediaType) {
		return tab.ReadTable(body)
	}
	return tab.ReadJSON(body)
}

// Explain asks the endpoint for the query's optimized execution plan
// (?explain=1): the plan tree with estimated vs actual cardinalities, as
// produced by the engine's cost-based planner. The query is executed once
// on the server to record actual cardinalities; results are not returned.
func (c *HTTPClient) Explain(query string) (*sparql.ExplainReport, error) {
	resp, _, err := c.roundTrip("explain", c.Endpoint, url.Values{"query": {query}, "explain": {"1"}}, c.UsePost, obs.NewRequestID(), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep sparql.ExplainReport
	if err := readJSON(resp, &rep); err != nil {
		return nil, fmt.Errorf("client: decoding explain report: %w", err)
	}
	return &rep, nil
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
