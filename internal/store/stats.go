package store

import "sync/atomic"

// This file implements the statistics catalog behind the cost-based query
// planner: per-predicate triple counts and distinct subject/object counts,
// per-graph totals, and a coarse "stats epoch" that advances only when the
// data distribution shifts enough to make replanning worthwhile.
//
// What the catalog reports per predicate is read off the graph's sorted
// permutations at snapshot time: the triple count is the length of the
// predicate's POS range, its distinct objects and subjects the lengths of
// its ObjectsOfPred and SubjectsOfPred runs. The first-level keys that
// carry a live triple — the predicates themselves, and how many subjects
// and objects the graph has — would cost a walk of the id range, so the
// graph keeps those three exact as it changes (Graph.tally).

// PredicateStats describes one predicate within a graph.
type PredicateStats struct {
	// Triples is the number of triples with this predicate.
	Triples int
	// DistinctSubjects / DistinctObjects count the distinct terms in the
	// subject / object position across those triples.
	DistinctSubjects int
	DistinctObjects  int
}

// GraphStats describes one named graph.
type GraphStats struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
	Predicates       map[ID]PredicateStats
}

// Stats is an immutable snapshot of the statistics catalog. It is safe to
// share across goroutines and stays exact for as long as Version matches
// the store's Version().
type Stats struct {
	// Version is the store mutation epoch the snapshot reflects.
	Version uint64
	// Epoch is the planning epoch (see Store.StatsEpoch).
	Epoch uint64
	// TotalTriples sums Triples across graphs.
	TotalTriples int
	Graphs       map[string]*GraphStats
}

// statsEpochMinGrowth is the smallest absolute triple-count growth that can
// advance the stats epoch; below it even a relative jump is noise.
const statsEpochMinGrowth = 64

// Stats returns the current statistics snapshot. Rebuilds are cheap —
// O(total distinct predicates) — and cached per store version, so hot
// callers (the query planner) usually get the cached pointer back. Callers
// must not mutate the result. Stats must not be called while holding the
// store's read lock (it may take it itself).
func (s *Store) Stats() *Stats {
	if st := s.statsCache.Load(); st != nil && st.Version == s.Version() {
		return st
	}
	s.mu.RLock()
	st := s.buildStatsLocked()
	s.mu.RUnlock()
	s.statsCache.Store(st)
	return st
}

// StatsEpoch returns the planning epoch: a counter that advances when the
// statistics catalog shifts materially — a new graph appears, or the total
// triple count moves by at least 1/8 in either direction (and by at least
// statsEpochMinGrowth triples) since the last advance. Shrinkage counts the
// same as growth: a bulk DELETE that removes an eighth of the data is just
// as much a distribution shift as ingest adding one. Plans cached against
// an epoch stay valid until it moves, so steady-state serving never replans
// while bulk ingest or bulk deletion forces a re-optimization. Safe to call
// without any lock.
func (s *Store) StatsEpoch() uint64 { return s.statsEpoch.Load() }

// maybeBumpEpochLocked advances the stats epoch if the distribution has
// shifted since the last advance. Called with the write lock held after a
// successful mutation; newGraph forces the bump.
func (s *Store) maybeBumpEpochLocked(newGraph bool) {
	moved := s.total - s.epochTotal
	if moved < 0 {
		moved = -moved
	}
	threshold := max(statsEpochMinGrowth, s.epochTotal/8)
	if newGraph || (s.epochTotal == 0 && s.total > 0) || moved >= threshold {
		s.statsEpoch.Add(1)
		s.epochTotal = s.total
	}
}

// buildStatsLocked assembles a stats snapshot, exact whatever the graphs
// hold in delta and tombstones, in time proportional to the predicates
// (plus the ranges of those a pending insert or tombstone touches).
func (s *Store) buildStatsLocked() *Stats {
	st := &Stats{
		Version: s.version.Load(),
		Epoch:   s.statsEpoch.Load(),
		Graphs:  make(map[string]*GraphStats, len(s.graphs)),
	}
	for uri, g := range s.graphs {
		gs := &GraphStats{
			Triples:          g.Len(),
			DistinctSubjects: g.subjects,
			DistinctObjects:  g.objects,
			Predicates:       make(map[ID]PredicateStats, len(g.preds)),
		}
		for _, p := range g.preds {
			gs.Predicates[p] = PredicateStats{
				Triples:          g.Cardinality(IDTriple{P: p}),
				DistinctSubjects: len(g.SubjectsOfPred(p)),
				DistinctObjects:  len(g.ObjectsOfPred(p)),
			}
		}
		st.Graphs[uri] = gs
		st.TotalTriples += gs.Triples
	}
	return st
}

// Predicate aggregates the predicate's stats across the given graphs (all
// graphs when the list is empty). Distinct counts are summed, which
// overcounts terms shared between graphs — an upper bound, which is the
// safe direction for selectivity estimation.
func (st *Stats) Predicate(graphURIs []string, p ID) PredicateStats {
	var out PredicateStats
	st.each(graphURIs, func(gs *GraphStats) {
		ps := gs.Predicates[p]
		out.Triples += ps.Triples
		out.DistinctSubjects += ps.DistinctSubjects
		out.DistinctObjects += ps.DistinctObjects
	})
	return out
}

// Totals aggregates graph-level totals across the given graphs (all graphs
// when the list is empty): triple count, distinct subjects, distinct
// objects, and distinct predicates, each summed per graph.
func (st *Stats) Totals(graphURIs []string) (triples, subjects, objects, predicates int) {
	st.each(graphURIs, func(gs *GraphStats) {
		triples += gs.Triples
		subjects += gs.DistinctSubjects
		objects += gs.DistinctObjects
		predicates += len(gs.Predicates)
	})
	return triples, subjects, objects, predicates
}

func (st *Stats) each(graphURIs []string, f func(*GraphStats)) {
	if len(graphURIs) == 0 {
		for _, gs := range st.Graphs {
			f(gs)
		}
		return
	}
	for _, uri := range graphURIs {
		if gs := st.Graphs[uri]; gs != nil {
			f(gs)
		}
	}
}

// statsCachePtr keeps the Store struct declaration readable.
type statsCachePtr = atomic.Pointer[Stats]
