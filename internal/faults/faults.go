// Package faults is the test-side fault-injection harness for the serving
// stack: injectable slow and failing evaluations (plugged into
// sparql.Engine.SetEvalHook), response bodies cut mid-stream (a network
// fault between server and client), and deterministic request shedding (a
// server refusing chosen requests with 429/503 + Retry-After).
//
// Everything here is driven by the robustness tests — the -race hammer
// suites and the fault-injection e2e tests that prove results stay
// byte-identical to unfaulted runs under shedding, cancellation, and
// stampedes. Nothing in this package is imported by production code.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error injected by failing evaluations.
var ErrInjected = errors.New("faults: injected evaluation failure")

// Evals injects evaluation faults. Install with
// engine.SetEvalHook(f.Hook): every evaluation first sleeps Delay (if any,
// honoring the evaluation's context — a cancelled evaluation stops
// sleeping immediately), then fails with Err while armed failures remain.
// All knobs are safe to retune while evaluations are running.
type Evals struct {
	delay atomic.Int64 // nanoseconds each evaluation sleeps
	fail  atomic.Int64 // evaluations left to fail
	calls atomic.Uint64

	mu  sync.Mutex
	err error
}

// SetDelay makes every subsequent evaluation sleep d before running
// (0 removes the delay).
func (f *Evals) SetDelay(d time.Duration) { f.delay.Store(int64(d)) }

// FailNext arms the next n evaluations to fail with err (nil uses
// ErrInjected).
func (f *Evals) FailNext(n int, err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
	f.fail.Store(int64(n))
}

// Calls reports how many evaluations reached the hook.
func (f *Evals) Calls() uint64 { return f.calls.Load() }

// Hook is the sparql.Engine eval hook applying the armed faults. It runs
// with the evaluation's context: a context cancelled mid-delay aborts the
// evaluation with the context's error, exactly like a slow real evaluation
// would.
func (f *Evals) Hook(ctx context.Context) error {
	f.calls.Add(1)
	if d := time.Duration(f.delay.Load()); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	for {
		n := f.fail.Load()
		if n <= 0 {
			return nil
		}
		if f.fail.CompareAndSwap(n, n-1) {
			f.mu.Lock()
			err := f.err
			f.mu.Unlock()
			if err == nil {
				err = ErrInjected
			}
			return err
		}
	}
}

// CutBodyTransport is an http.RoundTripper that truncates response bodies
// after Limit bytes for the next armed requests — the wire dying mid-body
// between server and client. Reads past the cut return
// io.ErrUnexpectedEOF, which is what a net-level connection reset surfaces
// as through Go's HTTP client body reader.
type CutBodyTransport struct {
	// Base performs the real round trip (nil uses
	// http.DefaultTransport).
	Base http.RoundTripper
	// Limit is the number of body bytes delivered before the cut.
	Limit int64

	armed atomic.Int64
	cuts  atomic.Uint64
}

// Arm makes the next n responses cut their bodies after Limit bytes.
func (t *CutBodyTransport) Arm(n int) { t.armed.Store(int64(n)) }

// Cuts reports how many responses were actually cut: read up to Limit and
// then once more. An armed response shorter than Limit is not cut.
func (t *CutBodyTransport) Cuts() uint64 { return t.cuts.Load() }

// RoundTrip implements http.RoundTripper.
func (t *CutBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	for {
		n := t.armed.Load()
		if n <= 0 {
			return resp, nil
		}
		if t.armed.CompareAndSwap(n, n-1) {
			break
		}
	}
	resp.Body = &cutBody{rc: resp.Body, remaining: t.Limit, cuts: &t.cuts}
	return resp, nil
}

// cutBody delivers at most remaining bytes, then fails like a dead
// connection.
type cutBody struct {
	rc        io.ReadCloser
	remaining int64
	dead      bool
	cuts      *atomic.Uint64 // counts the body once, at the read that fails
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.dead || c.remaining <= 0 {
		c.dead = true
		if c.cuts != nil {
			c.cuts.Add(1)
			c.cuts = nil
		}
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	if err == nil && c.remaining <= 0 {
		c.dead = true
		// The caller got its bytes; the next Read reports the cut.
	}
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// ShedRequests wraps a handler, shedding every request whose 1-based
// arrival index makes shouldShed true with the given status and a
// Retry-After header — a deterministic stand-in for server-side load
// shedding at exact points in a client's request sequence.
func ShedRequests(h http.Handler, status int, retryAfter time.Duration, shouldShed func(n int) bool) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shouldShed(int(n.Add(1))) {
			secs := int(retryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			http.Error(w, "injected shed", status)
			return
		}
		h.ServeHTTP(w, r)
	})
}
