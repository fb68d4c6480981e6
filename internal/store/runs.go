package store

// Sorted-run access for the worst-case-optimal join executor. A Run is one
// trie level of a permutation as a sorted, duplicate-free id slice — the
// subjects carrying a predicate, the objects of one (s, p) pair, and so on
// — and a RunIterator seeks through it with the Seek(id)/Next() contract
// leapfrog triejoin needs. Like MatchParts, the API is read-only over the
// store and safe for concurrent use while the evaluator holds the store
// read lock.
//
// The permutations store exactly these levels, so where neither a pending
// insert nor a tombstone falls inside the range a run is a sub-slice of a
// base array. Where one does, the run is a merged copy the size of the
// range — never a sort, a hash set or a cache to invalidate.

// Run is a sorted, duplicate-free id slice: one trie level of a
// permutation. It may alias the graph's arrays and must not be modified.
type Run []ID

// SubjectsOfPred returns the sorted distinct subjects that carry predicate
// p — the hub-variable run of a star pattern (?s p ?o).
func (g *Graph) SubjectsOfPred(p ID) Run {
	var lo, hi uint32
	if int(p)+1 < len(g.psOff) {
		lo, hi = g.psOff[p], g.psOff[p+1]
	}
	base := g.psIDs[lo:hi:hi]
	if len(g.pos.deltaRange(key{p}, 1)) == 0 && g.psDead.count(lo, hi) == 0 {
		return base
	}
	var added []ID // subjects of pending (s, p, *) inserts, ascending
	for _, e := range g.spo.delta {
		if !e.dead && e.key[1] == p {
			added = append(added, e.key[0])
		}
	}
	return union(base, func(i int) bool { return !g.psDead.get(lo + uint32(i)) }, added)
}

// ObjectsOfPred returns the sorted distinct objects of predicate p.
func (g *Graph) ObjectsOfPred(p ID) Run { return g.pos.mid(p) }

// ObjectsSP returns the sorted objects of the (s, p) pair — the leaf run of
// the SPO permutation.
func (g *Graph) ObjectsSP(s, p ID) Run { return g.spo.leaf(s, p) }

// SubjectsPO returns the sorted subjects of the (p, o) pair — the leaf run
// of the POS permutation.
func (g *Graph) SubjectsPO(p, o ID) Run { return g.pos.leaf(p, o) }

// Nodes returns the sorted distinct nodes of the graph: every id that
// appears in subject or object position of a live triple. This is the
// domain of zero-length property paths (?s p* ?o with both ends unbound)
// and the node universe topology features are computed over.
func (g *Graph) Nodes() Run { return union(g.spo.top(), nil, g.osp.top()) }

// RunIterator walks a Run with the leapfrog-triejoin contract: At() is the
// current id, Next() advances by one, and Seek(id) advances to the first
// element >= id (never moving backwards). Past the last element the
// iterator is Done and stays Done.
type RunIterator struct {
	run Run
	pos int
}

// NewRunIterator returns an iterator positioned at the first element of
// run (Done immediately when run is empty).
func NewRunIterator(run Run) RunIterator { return RunIterator{run: run} }

// Done reports that the iterator moved past the last element.
func (it *RunIterator) Done() bool { return it.pos >= len(it.run) }

// At returns the current id. Undefined when Done.
func (it *RunIterator) At() ID { return it.run[it.pos] }

// Next advances to the next element.
func (it *RunIterator) Next() { it.pos++ }

// Seek advances to the first element >= id, by galloping from the current
// position (doubling probe distance, then binary search within the
// bracketed window): successive seeks through a run cost amortized
// O(1 + log gap) instead of O(log n) each. Seeking backwards is a no-op —
// the iterator never rewinds — and seeking past the end leaves it Done.
func (it *RunIterator) Seek(id ID) {
	if it.pos >= len(it.run) || it.run[it.pos] >= id {
		return
	}
	// Gallop: find the smallest window (lo, hi] with run[hi] >= id.
	lo, step := it.pos, 1
	hi := it.pos + step
	for hi < len(it.run) && it.run[hi] < id {
		lo = hi
		step *= 2
		hi = it.pos + step
	}
	if hi > len(it.run) {
		hi = len(it.run)
	}
	// Binary search (lo, hi): run[lo] < id, run[hi] >= id (or hi == len).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.run[mid] < id {
			lo = mid
		} else {
			hi = mid
		}
	}
	it.pos = hi
}
