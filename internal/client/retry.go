package client

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy governs how the client re-issues a failed chunk fetch. The
// zero value is usable: every field falls back to its default. The policy
// covers transient failures — network errors, 429/503 sheds from an
// admission-controlled endpoint, other 5xx, and malformed/truncated
// response bodies. When a shed response carries Retry-After, that hint
// overrides the computed backoff for the next attempt, so a fleet of
// paginating clients drains an overloaded server's queue at the pace the
// server asked for instead of hammering it in lockstep.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3, i.e. two retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms): attempt n
	// waits BaseDelay * 2^(n-1), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (default 2s). A server's
	// Retry-After hint may exceed it (bounded by maxRetryAfter).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over ±Jitter fraction of itself
	// (default 0.2) so concurrent clients shed by the same spike do not
	// retry in lockstep. 0 disables jitter; set a negative value to force
	// exactly-computed delays in tests.
	Jitter float64
}

// Retry defaults, and the ceiling on how long a server-provided
// Retry-After hint can stall one attempt.
const (
	defaultMaxAttempts = 3
	defaultBaseDelay   = 50 * time.Millisecond
	defaultMaxDelay    = 2 * time.Second
	maxRetryAfter      = time.Minute
)

// withDefaults resolves zero fields to the package defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// delay computes the wait before retry number retryNum (1 = first retry).
// retryAfter, when > 0, is the server's Retry-After hint and takes
// precedence over the exponential schedule (capped at maxRetryAfter).
// Jitter applies to both so synchronized clients still spread out.
func (p RetryPolicy) delay(retryNum int, retryAfter time.Duration) time.Duration {
	var d time.Duration
	if retryAfter > 0 {
		d = retryAfter
		if d > maxRetryAfter {
			d = maxRetryAfter
		}
	} else {
		d = p.BaseDelay << (retryNum - 1)
		if d > p.MaxDelay || d <= 0 { // <= 0 guards shift overflow
			d = p.MaxDelay
		}
	}
	if p.Jitter > 0 {
		// Uniform over [d*(1-Jitter), d*(1+Jitter)].
		spread := 1 - p.Jitter + 2*p.Jitter*rand.Float64()
		d = time.Duration(float64(d) * spread)
	}
	return d
}

// retryInfo is the verdict on one attempt: whether a failure is worth
// retrying, how long the server asked us to wait, the HTTP status
// observed (0 = transport error before any response), and the store
// version a results page came from.
type retryInfo struct {
	retryable  bool
	retryAfter time.Duration
	status     int
	version    string
}

// retryAfterHint parses a response's Retry-After header (delay-seconds
// form; HTTP-date is ignored). Returns 0 when absent or unparsable.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits d, returning early with the context's error when it is
// cancelled — a caller abandoning paginated work must not be held hostage
// by a backoff timer.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
