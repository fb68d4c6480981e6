package store

import (
	"fmt"

	"rdfframes/internal/rdf"
)

// Mutation batches: the write-side entry point SPARQL UPDATE compiles to.
// An UpdateOp is one ground insert or delete against one named graph; an
// ApplyBatch call applies a whole batch under a single write-lock hold, so
// readers admitted concurrently (who bracket evaluation with RLock/RUnlock)
// observe either the entire batch or none of it — never a torn prefix. The
// store version advances exactly once per changed triple, all at the end of
// the batch, so no version value ever corresponds to a mid-batch state.

// UpdateOp is one ground mutation: Insert true adds the triple to the named
// graph, false deletes it.
type UpdateOp struct {
	Insert bool
	Graph  string
	Triple rdf.Triple
}

// ApplyResult reports what a mutation batch changed.
type ApplyResult struct {
	// Inserted / Deleted count the triples the batch actually changed;
	// duplicate inserts and deletes of absent triples are no-ops (RDF set
	// semantics) and are not counted.
	Inserted int
	Deleted  int
	// Version is the store version after the batch. Equal to the pre-batch
	// version when the batch was a complete no-op.
	Version uint64
}

// ApplyBatch applies a mutation batch atomically: all ops under one write
// lock, one version advance per changed triple issued at the end, one stats
// epoch check. Invalid triples are rejected before any op is applied, so a
// batch either applies completely or not at all. Graphs whose tombstones or
// pending inserts cross the merge thresholds (see needsCompaction) are
// compacted in the same critical section.
//
// Deletes of absent triples and duplicate inserts are silent no-ops; a batch
// where every op is a no-op leaves the version unchanged (and cached results
// stay exactly valid, because the logical content did not move).
func (s *Store) ApplyBatch(ops []UpdateOp) (ApplyResult, error) {
	for i, op := range ops {
		if !op.Triple.Valid() {
			return ApplyResult{}, fmt.Errorf("store: invalid triple %s in batch op %d", op.Triple, i)
		}
		if op.Graph == "" {
			return ApplyResult{}, fmt.Errorf("store: empty graph URI in batch op %d", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res ApplyResult
	newGraph := false
	touched := make(map[*Graph]struct{}, 2)
	for _, op := range ops {
		if op.Insert {
			g, created := s.ensureGraph(op.Graph)
			newGraph = newGraph || created
			if g.add(IDTriple{s.dict.Encode(op.Triple.S), s.dict.Encode(op.Triple.P), s.dict.Encode(op.Triple.O)}) {
				res.Inserted++
				s.total++
				touched[g] = struct{}{}
			}
			continue
		}
		g := s.graphs[op.Graph]
		if g == nil {
			continue
		}
		// A triple whose terms were never interned cannot be in the store.
		sID, ok1 := s.dict.Lookup(op.Triple.S)
		pID, ok2 := s.dict.Lookup(op.Triple.P)
		oID, ok3 := s.dict.Lookup(op.Triple.O)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		if g.delete(IDTriple{sID, pID, oID}) {
			res.Deleted++
			s.total--
			touched[g] = struct{}{}
		}
	}
	for g := range touched {
		if g.needsCompaction() {
			g.compact()
		}
	}
	if delta := res.Inserted + res.Deleted; delta > 0 {
		// One advance per changed triple, issued after the whole batch: the
		// version a reader observes either predates the batch or includes all
		// of it, which is what keys the result cache exactly.
		s.version.Add(uint64(delta))
		s.maybeBumpEpochLocked(newGraph)
	}
	res.Version = s.version.Load()
	return res, nil
}

// Compaction merges a graph's pending inserts and tombstones into fresh
// base arrays (Graph.build). Iteration order is a function of content, and
// the content does not change, so compaction never moves the store version
// and cached query results stay exactly valid.

// CompactGraph forces compaction of the named graph regardless of the
// thresholds, reporting whether there was anything to merge.
func (s *Store) CompactGraph(graphURI string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.graphs[graphURI]
	if g == nil || !g.dirty() {
		return false
	}
	g.compact()
	return true
}

// CompactAll force-compacts every graph, returning how many had anything
// to merge.
func (s *Store) CompactAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, g := range s.graphs {
		if g.dirty() {
			g.compact()
			n++
		}
	}
	return n
}
