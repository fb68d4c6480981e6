// Admission control and load shedding: the server survives thousands of
// concurrent, skewed clients by bounding the work it accepts instead of
// falling over. Three gates run in order before any evaluation starts:
//
//  1. drain — a server shutting down refuses new queries (503) while
//     in-flight ones finish;
//  2. cost — a per-query budget over the planner's cardinality estimates
//     rejects queries predicted to be too expensive (429);
//  3. capacity — a bounded in-flight semaphore sheds requests beyond
//     MaxInFlight (429) rather than queueing unboundedly.
//
// Every shed response carries Retry-After so well-behaved clients (ours
// honors it — see internal/client) back off instead of spinning, and every
// shed increments a per-reason counter exposed on /stats.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Shed reasons, as reported in AdmissionStats.Shed and used by the traffic
// harness to attribute sheds.
const (
	ShedCapacity = "capacity"
	ShedCost     = "cost"
	ShedDraining = "draining"
)

// defaultRetryAfter is the Retry-After hint on shed responses when the
// server sets none: long enough to let a load spike pass, short enough
// that a paginating client resumes promptly.
const defaultRetryAfter = time.Second

// admission is the server's gate state. Zero value = all gates open; the
// semaphore materializes lazily from Server.MaxInFlight on first use.
type admission struct {
	once sync.Once
	sem  chan struct{}

	inFlight atomic.Int64
	admitted atomic.Uint64
	draining atomic.Bool

	shedCapacity atomic.Uint64
	shedCost     atomic.Uint64
	shedDraining atomic.Uint64
}

// AdmissionStats is the admission-control block of /stats.
type AdmissionStats struct {
	// MaxInFlight and MaxQueryCost echo the configured limits (0 = off).
	MaxInFlight  int     `json:"max_in_flight"`
	MaxQueryCost float64 `json:"max_query_cost"`
	// InFlight is the number of queries currently evaluating; Admitted
	// counts queries ever admitted past the gates.
	InFlight int64  `json:"in_flight"`
	Admitted uint64 `json:"admitted"`
	// Draining reports a shutdown in progress (new queries are refused).
	Draining bool `json:"draining"`
	// Shed counts refused requests by reason: capacity, cost, draining.
	Shed map[string]uint64 `json:"shed"`
}

// AdmissionStats snapshots the admission counters.
func (s *Server) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		MaxInFlight:  s.MaxInFlight,
		MaxQueryCost: s.MaxQueryCost,
		InFlight:     s.adm.inFlight.Load(),
		Admitted:     s.adm.admitted.Load(),
		Draining:     s.adm.draining.Load(),
		Shed: map[string]uint64{
			ShedCapacity: s.adm.shedCapacity.Load(),
			ShedCost:     s.adm.shedCost.Load(),
			ShedDraining: s.adm.shedDraining.Load(),
		},
	}
}

// BeginDrain flips the server into drain mode: every subsequent query is
// refused with 503 + Retry-After while already-admitted queries run to
// completion. Used by graceful shutdown; irreversible for the server's
// lifetime.
func (s *Server) BeginDrain() { s.adm.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.draining.Load() }

// retryAfterSeconds resolves the Retry-After hint in whole seconds (>= 1).
func (s *Server) retryAfterSeconds() int {
	d := s.RetryAfter
	if d <= 0 {
		d = defaultRetryAfter
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed refuses the request with the given status, a Retry-After header,
// and a per-reason counter bump. Sheds are deliberate and cheap — the
// whole point is that this path costs nearly nothing under overload.
func (s *Server) shed(w http.ResponseWriter, reason, detail string, status int) {
	switch reason {
	case ShedCapacity:
		s.adm.shedCapacity.Add(1)
	case ShedCost:
		s.adm.shedCost.Add(1)
	case ShedDraining:
		s.adm.shedDraining.Add(1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	http.Error(w, detail, status)
	s.logf("shed (%s): %s", reason, detail)
}

// admit runs the gates for one request. It returns a release function to
// defer when the request was admitted, or ok=false after having already
// written the shed response. A write skips the cost gate: an update batch
// is bounded by the body size cap, not by planner estimates. ctx carries
// the request trace (if any) into cost estimation, where a cold query pays
// for its parse and planning.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, text string, write bool) (release func(), ok bool) {
	if s.adm.draining.Load() {
		s.shed(w, ShedDraining, "server is draining for shutdown", http.StatusServiceUnavailable)
		return nil, false
	}
	if s.MaxQueryCost > 0 && !write {
		est, known, err := s.Engine.EstimateCostContext(ctx, text)
		if err != nil {
			// Unparsable: let the evaluation path report the error with its
			// usual 400 — admission only answers load questions.
			known = false
		}
		if known && est > s.MaxQueryCost {
			s.shed(w, ShedCost,
				fmt.Sprintf("query over cost budget: estimated %.0f rows of intermediate work, budget %.0f", est, s.MaxQueryCost),
				http.StatusTooManyRequests)
			return nil, false
		}
	}
	if s.MaxInFlight > 0 {
		s.adm.once.Do(func() { s.adm.sem = make(chan struct{}, s.MaxInFlight) })
		select {
		case s.adm.sem <- struct{}{}:
		default:
			s.shed(w, ShedCapacity,
				fmt.Sprintf("server at capacity: %d requests in flight", s.MaxInFlight),
				http.StatusTooManyRequests)
			return nil, false
		}
	}
	s.adm.admitted.Add(1)
	s.adm.inFlight.Add(1)
	return func() {
		s.adm.inFlight.Add(-1)
		if s.MaxInFlight > 0 {
			<-s.adm.sem
		}
	}, true
}
