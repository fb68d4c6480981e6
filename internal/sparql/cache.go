package sparql

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"

	"rdfframes/internal/obs"
	"rdfframes/internal/qcache"
)

// Serving-cache defaults. RDFFrames pipelines generate SPARQL
// programmatically, so the serving workload is dominated by repeats of the
// same machine-built query text; these sizes comfortably cover the paper's
// whole workload many times over.
const (
	// DefaultPlanCacheEntries bounds the parsed-plan cache (cost 1/entry).
	DefaultPlanCacheEntries = 4096
	// DefaultResultCacheRows bounds the result cache by total cached rows.
	// A decoded row of a few terms runs ~250 bytes, so 1<<18 rows is a
	// roughly 64 MB-equivalent budget.
	DefaultResultCacheRows = 1 << 18
)

// cachedResult is one result-cache entry: the complete, ordered result of
// a query without its outer LIMIT/OFFSET, valid exactly for the store
// version recorded at evaluation time (which is also baked into the entry's
// key, so a version mismatch is structurally a miss).
type cachedResult struct {
	version uint64
	res     *compactResult
}

// cost is the entry's charge against the result cache's row budget.
func (ce *cachedResult) cost() int64 { return int64(ce.res.n) + 1 }

// ServeInfo describes how a request was answered.
type ServeInfo struct {
	// CacheEnabled reports whether the result cache was consulted.
	CacheEnabled bool
	// Hit reports whether the response came from the result cache.
	Hit bool
	// Coalesced reports that the call missed the cache but joined another
	// caller's in-progress evaluation of the same key (singleflight) rather
	// than evaluating itself.
	Coalesced bool
	// StoreVersion is the store mutation epoch the response reflects.
	StoreVersion uint64
	// PlanDigest is the structural hash of the optimized plan the request
	// ran ("" for EXPLAIN and under DisableReorder); see
	// queryPlan.planDigest.
	PlanDigest string
}

// CacheOutcome renders the serve outcome as one word for annotations,
// headers, and the slow-query log.
func (si ServeInfo) CacheOutcome() string {
	switch {
	case !si.CacheEnabled:
		return "off"
	case si.Hit:
		return "hit"
	case si.Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// EnableCache switches on the result cache, bounded by resultRows total
// cached rows (<= 0 leaves it off), and rebuilds the engine's plan cache
// with room for planEntries parsed queries (<= 0 keeps the current one).
// Call before serving traffic; it is not synchronized with in-flight
// queries.
func (e *Engine) EnableCache(planEntries int, resultRows int64) {
	if planEntries > 0 {
		e.plans = newPlanCache(planEntries)
	}
	if resultRows > 0 {
		e.results = qcache.New[*cachedResult](resultRows, 4)
	}
}

// newPlanCache returns an empty plan cache of up to entries parsed queries.
func newPlanCache(entries int) *qcache.Cache[*cachedPlan] {
	return qcache.New[*cachedPlan](int64(entries), 16)
}

// CacheEnabled reports whether the result cache is on.
func (e *Engine) CacheEnabled() bool { return e.results != nil }

// CacheStats is a snapshot of the serving-cache counters.
type CacheStats struct {
	Enabled bool         `json:"enabled"`
	Plans   qcache.Stats `json:"plans"`
	Results qcache.Stats `json:"results"`
	// Singleflight counts stampede-protection outcomes on result-cache
	// misses: evaluations led vs callers coalesced onto one.
	Singleflight FlightStats `json:"singleflight"`
}

// CacheStats returns the current cache counters (the result cache's are
// zero while it is off).
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{Enabled: e.results != nil, Plans: e.plans.Stats()}
	if e.results != nil {
		st.Results = e.results.Stats()
	}
	st.Singleflight = e.flights.stats()
	return st
}

// cachedPlan is one plan-cache entry: the immutable parsed query plus its
// latest optimized plan. The plan pointer is atomic because concurrent
// queries may race to re-optimize after a stats-epoch move; either winner
// is a valid plan for the epoch, so last-write-wins is fine.
type cachedPlan struct {
	q    *Query
	plan atomic.Pointer[queryPlan]
}

// planned resolves src to its parsed query and an optimized plan. Every
// engine caches both by query text: a text is parsed once, and its plan is
// rebuilt only when the store's stats epoch moves (bulk ingest or
// deletion, a new graph) or DisableReorder no longer matches the knob the
// plan was built under, so steady-state reads reuse the cached plan
// untouched. The returned plan is nil for EXPLAIN queries, which plan
// themselves. A trace carried by ctx gets parse/plan spans and the
// plan-cache outcome.
func (e *Engine) planned(ctx context.Context, src string) (*Query, *queryPlan, error) {
	tr := obs.TraceFrom(ctx)
	entry, ok := e.plans.Get(src)
	if ok {
		// First write wins: a request resolves the plan cache more than once
		// (admission-control cost estimation, then serve), and the outcome
		// that characterizes the request is the first one.
		if tr.Note("plan_cache") == "" {
			tr.Annotate("plan_cache", "hit")
		}
	} else {
		tr.Annotate("plan_cache", "miss")
		endParse := tr.StartSpan("parse")
		q, err := Parse(src)
		endParse()
		if err != nil {
			return nil, nil, err
		}
		entry = &cachedPlan{q: q}
		e.plans.Put(src, entry, 1)
	}
	if entry.q.Explain {
		// EXPLAIN queries build their own tracked plan in explainParsed;
		// planning here would be double work.
		return entry.q, nil, nil
	}
	reorder := !e.DisableReorder
	qp := entry.plan.Load()
	if qp == nil || qp.epoch != e.Store.StatsEpoch() || qp.reorder != reorder {
		endPlan := tr.StartSpan("plan")
		qp = e.buildPlan(entry.q, false, reorder)
		endPlan()
		entry.plan.Store(qp)
	}
	tr.Annotate("stats_epoch", strconv.FormatUint(qp.epoch, 10))
	return entry.q, qp, nil
}

// serve answers a parsed and planned query through the result cache — the
// part of Do that Request.Serving switches on — returning the result entry
// the request's LIMIT/OFFSET window slices. The entry is shared with the
// cache and every request it answers.
//
// Pagination-aware slicing: the cache key is the query text before its
// top-level LIMIT/OFFSET clauses (Query.Window, marked by the parser), and
// the cached value is the full ordered result of the query without them.
// Every page of a client's LIMIT/OFFSET sweep therefore maps to the same
// entry and is answered by slicing the cached rows — k paginated round
// trips cost one evaluation. This is exact because the text before the
// window parses to that unpaginated query, and the evaluator itself applies
// LIMIT/OFFSET as a final slice over the fully-materialized result.
//
// Invalidation is by store version: the version is part of the key, so a
// mutation moves every lookup onto fresh keys and stale entries age out of
// the LRU without ever being served.
func (e *Engine) serve(ctx context.Context, src string, q *Query, qp *queryPlan, info *ServeInfo) (ce *cachedResult, err error) {
	info.CacheEnabled = true
	tr := obs.TraceFrom(ctx)
	key := strings.TrimRight(src[:q.Window], " \t\r\n")
	lookupVersion := e.Store.Version()
	ck := cacheKey(lookupVersion, e.DefaultGraphs, key)
	for {
		endLookup := tr.StartSpan("result_cache_lookup")
		hit, ok := e.results.Get(ck)
		endLookup()
		if ok {
			info.Hit = true
			info.StoreVersion = hit.version
			tr.Annotate("result_cache", "hit")
			return hit, nil
		}

		// Miss: evaluate the normalized (unpaginated) query — at most once
		// across concurrent misses of the same key (stampede protection: N
		// concurrent cold requests coalesce into 1 evaluation, see
		// flight.go). The evaluation runs under the flight's context, which
		// stays live while any caller still waits, so a cancelled leader
		// promotes its waiters instead of killing their evaluation; this
		// caller's own ctx bounds only its wait.
		//
		// The version the evaluation reports may have moved since the
		// lookup, and the entry must be keyed to the state the evaluation
		// actually saw. The plan carries over: LIMIT/OFFSET do not affect
		// join order, and the evaluation runs a copy of the query without
		// them.
		ce, shared, err := e.flights.do(ctx, ck, func(fctx context.Context) (*cachedResult, error) {
			// This closure runs only when this caller leads the flight, so
			// the enclosing trace (not one fished from fctx, which is the
			// flight's shared context) is the right recording target.
			unpaged := *q
			unpaged.Limit, unpaged.Offset = -1, 0
			res, version, err := e.evaluate(fctx, tr, src, &unpaged, qp)
			if err != nil {
				return nil, err
			}
			entryKey := ck
			if version != lookupVersion {
				entryKey = cacheKey(version, e.DefaultGraphs, key)
			}
			fce := &cachedResult{version: version, res: res}
			e.storeResult(entryKey, fce)
			return fce, nil
		})
		if err != nil {
			if ctx.Err() == nil && errors.Is(err, context.Canceled) {
				// Joined a flight in the instant after its last caller left
				// (its evaluation was being aborted); this caller is still
				// live, so retry — the next round either hits the cache or
				// starts a fresh flight.
				continue
			}
			return nil, err
		}
		info.Coalesced = shared
		info.StoreVersion = ce.version
		tr.Annotate("result_cache", "miss")
		if shared {
			tr.Annotate("singleflight", "waiter")
		} else {
			tr.Annotate("singleflight", "leader")
		}
		return ce, nil
	}
}

// annotateEval notes what an evaluation counted on the request's trace.
func annotateEval(tr *obs.Trace, st evalStats) {
	if tr != nil {
		tr.Annotate("join_candidates", strconv.FormatInt(st.joinCandidates, 10))
		tr.Annotate("join_rows", strconv.FormatInt(st.joinRows, 10))
		tr.Annotate("subplan_reuses", strconv.FormatInt(st.subplanReuses, 10))
	}
}

// storeResult puts ce in the result cache under key. Keys carry the store
// version and the version only moves forward, so once an entry of a newer
// version exists every older one is unreachable: the first store at a new
// version drops them all, and an entry that was superseded while its
// response was in flight is refused. Left alone, dead entries hold their rows until the row budget
// pushes them out — tens of megabytes per update on a busy frame.
func (e *Engine) storeResult(key string, ce *cachedResult) {
	newest := e.newestCached.Load()
	if ce.version < newest {
		return
	}
	e.results.Put(key, ce, ce.cost())
	if ce.version > newest && e.newestCached.CompareAndSwap(newest, ce.version) {
		e.results.DeleteFunc(func(_ string, old *cachedResult) bool { return old.version < ce.version })
	}
}

// cacheKey builds the result-cache key: store version, the engine's
// default graphs, and the normalized query text, separated by bytes that
// cannot occur in any of them.
func cacheKey(version uint64, graphs []string, norm string) string {
	var sb strings.Builder
	sb.Grow(len(norm) + 32)
	sb.WriteString(strconv.FormatUint(version, 10))
	for _, g := range graphs {
		sb.WriteByte('\x1f')
		sb.WriteString(g)
	}
	sb.WriteByte('\x00')
	sb.WriteString(norm)
	return sb.String()
}

// pageBounds computes the [lo, hi) row window LIMIT/OFFSET (limit -1 =
// none) select over a fully-materialized n-row result: offset clamped to
// [0, n], then limit. It is the single definition of the final slice —
// the evaluator applies it to every query's materialized solutions, and
// the result cache applies it to cached rows, which is what makes a
// cached page slice exactly equal to direct evaluation.
func pageBounds(n, limit, offset int) (lo, hi int) {
	lo, hi = offset, n
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if limit >= 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi
}
