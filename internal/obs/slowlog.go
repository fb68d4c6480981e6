package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is a structured (JSON-lines) log of queries that exceeded a
// latency threshold: one self-contained JSON object per line, so the file
// greps and jq's cleanly and ships as a CI artifact. Writes are serialized
// under a mutex — slow queries are by definition rare, so the lock is
// never contended on the hot path (fast queries never reach Record).
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	entries   atomic.Uint64
	dropped   atomic.Uint64
}

// SlowEntry is one slow-query record. The span list is the same shape the
// ?trace=1 annex uses, so a slow query in the log and a traced replay of
// it line up stage by stage.
type SlowEntry struct {
	// Time is the RFC3339Nano completion time of the query.
	Time string `json:"time"`
	// RequestID correlates with the X-Request-ID response header and the
	// client's LastStats.
	RequestID string `json:"request_id"`
	// Query is the query text (truncated to MaxQueryBytes).
	Query string `json:"query"`
	// TruncatedQuery marks that Query was cut at MaxQueryBytes.
	TruncatedQuery bool `json:"query_truncated,omitempty"`
	// Seconds is the request's wall time; Status the HTTP status written.
	Seconds float64 `json:"seconds"`
	Status  int     `json:"status"`
	// Rows is the response row count (0 on errors).
	Rows int `json:"rows"`
	// Cache is the serving-cache outcome: hit, miss, coalesced, or off.
	Cache string `json:"cache,omitempty"`
	// PlanDigest identifies the optimized plan that ran (hash of the plan
	// tree shape), so "did the plan change after ingest" is answerable by
	// grepping the log across a stats-epoch move.
	PlanDigest string `json:"plan_digest,omitempty"`
	// StoreVersion is the store mutation epoch the response reflects.
	StoreVersion uint64 `json:"store_version,omitempty"`
	// Error is the failure detail for non-200 outcomes.
	Error string `json:"error,omitempty"`
	// Spans are the request's timed stages, when the request was traced.
	Spans []Span `json:"spans,omitempty"`
	// Annotations are the trace's notes: cache and singleflight outcomes and,
	// when the request was evaluated, what the evaluation counted
	// (join_candidates, join_rows, subplan_reuses).
	Annotations map[string]string `json:"annotations,omitempty"`
}

// MaxQueryBytes caps the query text stored per slow-log entry.
const MaxQueryBytes = 4096

// NewSlowLog returns a slow-query log writing JSON lines to w for queries
// at or over threshold.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// Threshold returns the log's latency threshold. Nil-safe: a nil log
// reports 0 and Armed() false, so callers can hold an optional *SlowLog
// without branching.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Armed reports whether the log is active (nil-safe).
func (l *SlowLog) Armed() bool { return l != nil }

// Entries returns how many entries have been written; Dropped how many
// failed to serialize or write. Nil-safe.
func (l *SlowLog) Entries() uint64 {
	if l == nil {
		return 0
	}
	return l.entries.Load()
}

// Dropped returns the count of entries lost to write errors. Nil-safe.
func (l *SlowLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Record writes one entry as a JSON line. Nil-safe no-op. Entries with an
// over-long query are truncated, never dropped.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	if len(e.Query) > MaxQueryBytes {
		e.Query = e.Query[:MaxQueryBytes]
		e.TruncatedQuery = true
	}
	line, err := json.Marshal(e)
	if err != nil {
		l.dropped.Add(1)
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, err = l.w.Write(line)
	l.mu.Unlock()
	if err != nil {
		l.dropped.Add(1)
		return
	}
	l.entries.Add(1)
}
