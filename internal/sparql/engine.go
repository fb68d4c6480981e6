package sparql

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"rdfframes/internal/obs"
	"rdfframes/internal/qcache"
	"rdfframes/internal/store"
)

// Engine evaluates SPARQL queries against a triple store. It is the
// stand-in for the RDF database system (Virtuoso in the paper).
type Engine struct {
	// Store is the underlying quad store.
	Store *store.Store
	// DefaultGraphs are queried when a query has no FROM clause. Empty
	// means the union of all graphs in the store. Set before the first
	// query: cached plans are not re-planned when it changes.
	DefaultGraphs []string
	// timeout bounds query execution; zero disables the deadline. Atomic
	// because callers (the benchmark harness, an operator endpoint) retune
	// it while queries may still be evaluating on server goroutines.
	timeout atomic.Int64
	// Parallelism is the intra-query worker count: the evaluator's
	// morsel-driven operators (fused BGP pipelines, joins, the trie walk,
	// DISTINCT) fan out to this many goroutines. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs every operator as one morsel on the
	// query goroutine — exactly the serial engine. Results are
	// byte-identical at every setting (the determinism contract in
	// parallel.go). Set before serving traffic; it is read per query.
	Parallelism int
	// DisableReorder makes the planner emit every BGP segment in textual
	// order, with no estimates, no subplan sharing and no trie walk — the
	// reference of the byte-identity tests and the ablation baseline.
	// Filter placement and the prune schedule are decided as always, and
	// the evaluator runs the tree it is given either way. A cached plan
	// built under the other setting is re-planned on its next use.
	DisableReorder bool
	// DisableWCOJ turns off the worst-case-optimal join operator, so every
	// BGP segment runs the binary join pipeline (the identity baseline for
	// the WCOJ byte-identity gate and ablation benchmarks). Set before the
	// first query: cached plans are not re-planned when it changes.
	DisableWCOJ bool

	// execStats counts executor activity — trie walks, join candidate checks
	// and rows, subplan reuses; exported as the rdfframes_wcoj_*,
	// rdfframes_join_* and rdfframes_subplan_* metric families.
	execStats execCounters

	// plans caches parsed queries by text together with their optimized
	// plans (re-optimized whenever the store's stats epoch moves); every
	// engine has one. results caches full result sets in compact form keyed
	// by (store version, graphs, normalized text); it is nil until
	// EnableCache (see cache.go).
	plans   *qcache.Cache[*cachedPlan]
	results *qcache.Cache[*cachedResult]
	// metricsReg is where RegisterMetrics put the engine's series; nil
	// until then.
	metricsReg *obs.Registry

	// newestCached is the highest store version an entry was stored at;
	// entries below it are dead (see storeResult).
	newestCached atomic.Uint64

	// flights coalesces concurrent result-cache misses on the same key into
	// a single evaluation (stampede protection; see flight.go).
	flights flightGroup

	// evals counts evaluator runs — not cache hits, not coalesced waits —
	// so tests and the traffic harness can assert exactly how many times a
	// workload paid for evaluation.
	evals atomic.Uint64

	// evalHook, when set, runs at the start of every evaluation (under the
	// store read lock, with the evaluation's context); a non-nil error
	// aborts the evaluation. It exists for fault injection in tests — slow
	// or failing evaluations — and is nil in production. Set via
	// SetEvalHook.
	evalHook atomic.Pointer[func(ctx context.Context) error]

	// update is the write-side state — the update mutex, attached WAL, and
	// idempotency-token index (see update_eval.go).
	update updateState
}

// NewEngine returns an engine over st with no default-graph restriction
// and a plan cache of DefaultPlanCacheEntries parsed queries.
func NewEngine(st *store.Store) *Engine {
	return &Engine{Store: st, plans: newPlanCache(DefaultPlanCacheEntries)}
}

// SetTimeout bounds each query evaluation; zero disables the deadline.
// Safe to call concurrently with running queries, which sample it when
// evaluation starts.
func (e *Engine) SetTimeout(d time.Duration) { e.timeout.Store(int64(d)) }

// Timeout returns the per-query evaluation deadline.
func (e *Engine) Timeout() time.Duration { return time.Duration(e.timeout.Load()) }

// SetEvalHook installs (or, with nil, removes) a hook run at the start of
// every evaluation with the evaluation's context; a non-nil error aborts
// the evaluation with that error. The hook runs under the store read lock.
// This is the engine's fault-injection point for tests (see
// internal/faults); production servers leave it unset. Safe to call
// concurrently with running queries.
func (e *Engine) SetEvalHook(h func(ctx context.Context) error) {
	if h == nil {
		e.evalHook.Store(nil)
		return
	}
	e.evalHook.Store(&h)
}

// Evaluations returns how many times the engine has actually run its
// evaluator — cache hits and coalesced (singleflight) waits do not count.
func (e *Engine) Evaluations() uint64 { return e.evals.Load() }

// WCOJStats reports the cumulative worst-case-optimal join counters:
// segments executed by the trie walk, sorted-run iterator seeks and
// dead-end backtracks, as the rdfframes_wcoj_* metrics do. fallbacks is
// always 0: only a group's leading segment, whose input is the unit
// solution the walk starts from, is planned as a walk.
func (e *Engine) WCOJStats() (segments, seeks, backtracks, fallbacks uint64) {
	return e.execStats.segments.Load(), e.execStats.seeks.Load(), e.execStats.backtracks.Load(), 0
}

// parallelism resolves the effective worker count for one query.
func (e *Engine) parallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// evaluate runs q under its plan qp in one store read transaction. It is
// the one evaluate step behind every read — Stream off the result cache, a
// cache miss's flight leader, Export, DELETE WHERE — so each records the
// same exec span, detailed plan and join annotations on tr. The store
// version is read under the same lock hold as the evaluation: batches
// commit under the write lock, so the version returned is exactly the
// state the result reflects. An EXPLAIN query answers with
// its plan as a one-variable result (see Explain for the structured form).
func (e *Engine) evaluate(ctx context.Context, tr *obs.Trace, src string, q *Query, qp *queryPlan) (*compactResult, uint64, error) {
	if q.Explain {
		rep, err := e.explainParsed(ctx, src, q)
		if err != nil {
			return nil, 0, err
		}
		return compactOf(rep.Results()), rep.StoreVersion, nil
	}
	if tr.Detailed() {
		// Per-operator detail was asked for: run under a fresh tracked plan
		// (tracked plans record actuals and must not be shared).
		qp = e.buildPlan(q, true, qp.reorder)
	}
	endExec := tr.StartSpan("exec")
	e.Store.RLock()
	version := e.Store.Version()
	res, err := e.evalLocked(ctx, q, qp)
	e.Store.RUnlock()
	endExec()
	if err != nil {
		return nil, 0, err
	}
	if qp.track {
		tr.Attach("plan", qp.root.node)
	}
	annotateEval(tr, res.stats)
	return res, version, nil
}

// evalLocked runs the eval hook, counts the evaluation, and runs q's plan
// qp under q's LIMIT/OFFSET window. The caller holds the store read lock.
func (e *Engine) evalLocked(ctx context.Context, q *Query, qp *queryPlan) (*compactResult, error) {
	if h := e.evalHook.Load(); h != nil {
		if err := (*h)(ctx); err != nil {
			return nil, err
		}
	}
	e.evals.Add(1)
	return e.newEvaluator(ctx, qp.track).evalQuery(qp.root, q.Limit, q.Offset)
}

// newEvaluator returns an evaluator for one read under ctx: the engine's
// worker pool, its deadline, a fresh expression dictionary.
func (e *Engine) newEvaluator(ctx context.Context, track bool) *evaluator {
	ev := &evaluator{
		store:   e.Store,
		dict:    newEvalDict(e.Store.Dict()),
		cache:   &regexCache{},
		track:   track,
		workers: e.parallelism(),
		ctr:     &e.execStats,
	}
	ev.tk.ctx = ctx
	if d := e.Timeout(); d > 0 {
		ev.tk.deadline = time.Now().Add(d)
	}
	return ev
}
