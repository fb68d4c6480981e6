package sparql

import (
	"rdfframes/internal/obs"
	"rdfframes/internal/qcache"
	"rdfframes/internal/store"
)

// RegisterMetrics exposes the engine's counters on reg as read-through
// functions over the very same atomics CacheStats and Evaluations report:
// /metrics and /stats cannot disagree because there is one source of truth
// sampled at render time, not two bookkeeping paths.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	registerCacheMetrics(reg, "plan", func() qcache.Stats { return e.plans.Stats() })
	registerCacheMetrics(reg, "result", func() qcache.Stats {
		if e.results == nil {
			return qcache.Stats{}
		}
		return e.results.Stats()
	})

	const sfHelp = "Result-cache miss evaluations by singleflight role: leaders ran the evaluation, waiters coalesced onto one."
	reg.CounterFunc("rdfframes_singleflight_total", sfHelp,
		func() float64 { return float64(e.flights.stats().Leaders) }, obs.L("role", "leader"))
	reg.CounterFunc("rdfframes_singleflight_total", sfHelp,
		func() float64 { return float64(e.flights.stats().Waiters) }, obs.L("role", "waiter"))

	reg.CounterFunc("rdfframes_evaluations_total",
		"Evaluator runs (cache hits and coalesced waits do not count).",
		func() float64 { return float64(e.Evaluations()) })

	reg.CounterFunc("rdfframes_wcoj_segments_total",
		"BGP segments executed by the worst-case-optimal (leapfrog triejoin) operator.",
		func() float64 { return float64(e.execStats.segments.Load()) })
	reg.CounterFunc("rdfframes_wcoj_seeks_total",
		"Sorted-run iterator seeks performed by WCOJ level intersections.",
		func() float64 { return float64(e.execStats.seeks.Load()) })
	reg.CounterFunc("rdfframes_wcoj_backtracks_total",
		"Dead-end prefixes abandoned during WCOJ trie enumeration.",
		func() float64 { return float64(e.execStats.backtracks.Load()) })
	reg.CounterFunc("rdfframes_join_candidates_total",
		"Candidate row pairs joins checked; far above rdfframes_join_rows_total means joins ran on poor keys.",
		func() float64 { return float64(e.execStats.joinCandidates.Load()) })
	reg.CounterFunc("rdfframes_join_rows_total",
		"Rows emitted by joins.",
		func() float64 { return float64(e.execStats.joinRows.Load()) })
	reg.CounterFunc("rdfframes_subplan_reuses_total",
		"Repeated subqueries and leading BGP segments answered from the output of their first evaluation in the same query.",
		func() float64 { return float64(e.execStats.subplanReuses.Load()) })

	reg.GaugeFunc("rdfframes_store_version",
		"Store mutation epoch; cached results are keyed to it.",
		func() float64 { return float64(e.Store.Version()) })
	reg.GaugeFunc("rdfframes_stats_epoch",
		"Statistics-catalog epoch; cached plans re-optimize when it moves.",
		func() float64 { return float64(e.Store.StatsEpoch()) })
	reg.GaugeFunc("rdfframes_store_triples",
		"Triples currently in the store across all graphs.",
		func() float64 { return float64(e.Store.Len()) })
	reg.GaugeFunc("rdfframes_store_graphs",
		"Named graphs currently in the store.",
		func() float64 { return float64(len(e.Store.GraphURIs())) })
	dict := func(name, help string, read func(*store.Dictionary) int) {
		reg.GaugeFunc(name, help, func() float64 {
			e.Store.RLock()
			defer e.Store.RUnlock()
			return float64(read(e.Store.Dict()))
		})
	}
	dict("rdfframes_store_dict_terms", "Terms interned in the store dictionary.", (*store.Dictionary).Len)
	dict("rdfframes_store_dict_bytes", "Heap bytes of the store dictionary: its arrays and its terms' values.", (*store.Dictionary).Bytes)
	e.metricsReg = reg
	e.registerGraphMetrics()
	reg.GaugeFunc("rdfframes_parallelism",
		"Effective intra-query morsel worker count.",
		func() float64 { return float64(e.parallelism()) })
	reg.GaugeFunc("rdfframes_cache_enabled",
		"1 when the serving result cache is on.",
		func() float64 {
			if e.CacheEnabled() {
				return 1
			}
			return 0
		})
}

// registerGraphMetrics exposes the physical layout of every graph now in
// the store, one series per graph: what a merge would fold away (delta,
// tombstones) and what the index arrays weigh. Every value is a slice
// length read under the store read lock. Update calls this again when a
// batch created a graph; re-registering a series replaces its function.
func (e *Engine) registerGraphMetrics() {
	for _, uri := range e.Store.GraphURIs() {
		gauge := func(name, help string, pick func(store.Layout) int) {
			e.metricsReg.GaugeFunc(name, help, func() float64 {
				e.Store.RLock()
				defer e.Store.RUnlock()
				return float64(pick(e.Store.Graph(uri).Layout()))
			}, obs.L("graph", uri))
		}
		gauge("rdfframes_store_base_triples",
			"Triples held in the graph's base arrays, live or tombstoned, by graph.",
			func(l store.Layout) int { return l.BaseTriples })
		gauge("rdfframes_store_delta_triples",
			"Inserts held in the graph's delta since its last merge, live or tombstoned, by graph.",
			func(l store.Layout) int { return l.DeltaTriples })
		gauge("rdfframes_store_tombstones",
			"Deleted triples the graph still holds until its next merge, by graph.",
			func(l store.Layout) int { return l.Tombstones })
		gauge("rdfframes_store_index_bytes",
			"Heap bytes of the graph's permutation arrays, by graph.",
			func(l store.Layout) int { return l.IndexBytes })
	}
}

// registerCacheMetrics exposes one qcache's counters under the shared
// family names with a cache=<name> label.
func registerCacheMetrics(reg *obs.Registry, name string, stats func() qcache.Stats) {
	l := obs.L("cache", name)
	reg.CounterFunc("rdfframes_cache_hits_total",
		"Cache lookups answered from the cache, by cache.",
		func() float64 { return float64(stats().Hits) }, l)
	reg.CounterFunc("rdfframes_cache_misses_total",
		"Cache lookups that missed, by cache.",
		func() float64 { return float64(stats().Misses) }, l)
	reg.CounterFunc("rdfframes_cache_evictions_total",
		"Entries evicted to fit the cache budget, by cache.",
		func() float64 { return float64(stats().Evictions) }, l)
	reg.GaugeFunc("rdfframes_cache_entries",
		"Entries currently cached, by cache.",
		func() float64 { return float64(stats().Entries) }, l)
	reg.GaugeFunc("rdfframes_cache_cost",
		"Current charged cost of cached entries, by cache.",
		func() float64 { return float64(stats().Cost) }, l)
	reg.GaugeFunc("rdfframes_cache_budget",
		"Configured cache cost budget, by cache.",
		func() float64 { return float64(stats().Budget) }, l)
}
