package store

import "slices"

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O ID
}

// Graph is one named graph: a set of encoded triples held as three sorted
// permutations (see perm.go). Every access path streams in the order of the
// permutation that serves it, so iteration order is a function of the
// graph's content alone — not of the order triples arrived in, nor of
// deletes, re-inserts or compaction.
type Graph struct {
	spo, pos, osp perm
	// psOff/psIDs rotate the base's distinct (s, p) pairs to p -> subjects,
	// the one sorted run no permutation stores contiguously.
	psOff []uint32
	psIDs []ID
	// psDead marks the pairs whose base triples are all tombstoned.
	psDead bitmap
	// The catalog's first-level keys, kept exact by tally on every insert
	// and delete: how many subjects and objects carry a live triple, and
	// which predicates do (ascending).
	subjects, objects int
	preds             []ID
}

func newGraph() *Graph {
	g := &Graph{}
	g.build(nil)
	return g
}

// deltaMax bounds the delta: an insert costs a memmove of the delta and
// every probe of a dirty graph a binary search of it, so the graph is
// merged once the delta holds this many entries.
const deltaMax = 4096

// compactionMinDead is the fewest tombstones that trigger a merge (below
// it skipping them is cheaper than a rebuild); they must also cover a
// quarter of what the graph holds.
const compactionMinDead = 64

// needsCompaction reports whether pending inserts or tombstones have
// accumulated past the merge thresholds.
func (g *Graph) needsCompaction() bool {
	dead, held := g.Tombstones(), len(g.spo.c)+len(g.spo.delta)
	return len(g.spo.delta) >= deltaMax || (dead >= compactionMinDead && dead*4 >= held)
}

// dirty reports whether the graph holds anything a merge would fold away.
func (g *Graph) dirty() bool { return g.spo.dead.ones > 0 || len(g.spo.delta) > 0 }

// compact merges delta and tombstones into fresh base arrays. The logical
// content, and with it every iteration order, is unchanged.
func (g *Graph) compact() { g.build(g.Triples()) }

// build replaces the graph's content with ts, in any order and possibly
// with repeats. It takes ownership of ts. All three permutations and the
// subject rotation are complete when it returns.
func (g *Graph) build(ts []IDTriple) {
	tmp := make([]IDTriple, len(ts))
	var maxID ID
	for _, t := range ts {
		maxID = max(maxID, t.S, t.P, t.O)
	}
	counts := make([]uint32, int(maxID)+2)
	byS := func(t IDTriple) ID { return t.S }
	byP := func(t IDTriple) ID { return t.P }
	byO := func(t IDTriple) ID { return t.O }
	if !ascendingSPO(ts) {
		// Least significant component first; each pass is stable.
		countingSort(tmp, ts, byO, counts)
		countingSort(ts, tmp, byP, counts)
		countingSort(tmp, ts, byS, counts)
		n := 0
		for i, t := range tmp {
			if i == 0 || t != tmp[i-1] {
				ts[n] = t
				n++
			}
		}
		ts, tmp = ts[:n], tmp[:n]
	}
	g.spo, g.subjects = buildPerm(spo, ts)
	countingSort(tmp, ts, byO, counts) // (s, p, o) stably by o is (o, s, p)
	g.osp, g.objects = buildPerm(osp, tmp)
	countingSort(ts, tmp, byP, counts) // (o, s, p) stably by p is (p, o, s)
	g.pos, _ = buildPerm(pos, ts)
	g.preds = g.pos.top()

	// The SPO trie lists the distinct (s, p) pairs by s; one more counting
	// pass groups their subjects by p, ascending within each.
	x := &g.spo
	g.psOff = make([]uint32, len(g.pos.aoff))
	g.psIDs = make([]ID, len(x.b))
	g.psDead = newBitmap(len(x.b))
	for _, p := range x.b {
		g.psOff[p+1]++
	}
	for p := 1; p < len(g.psOff); p++ {
		g.psOff[p] += g.psOff[p-1]
	}
	next := counts[:len(g.psOff)]
	copy(next, g.psOff)
	for s := 1; s+1 < len(x.aoff); s++ {
		for _, p := range x.b[x.aoff[s]:x.aoff[s+1]] {
			g.psIDs[next[p]] = ID(s)
			next[p]++
		}
	}
}

// tally keeps the catalog's first-level keys exact after t was inserted
// (d = +1) or deleted (d = -1): a key enters with its first live triple and
// leaves with its last.
func (g *Graph) tally(t IDTriple, d int) {
	edge := (1 + d) / 2 // the live count, after the change, that marks a transition
	if g.spo.count(g.spo.span(key{t.S}, 1)) == edge {
		g.subjects += d
	}
	if g.osp.count(g.osp.span(key{t.O}, 1)) == edge {
		g.objects += d
	}
	if g.pos.count(g.pos.span(key{t.P}, 1)) == edge {
		if i, _ := slices.BinarySearch(g.preds, t.P); d > 0 {
			g.preds = slices.Insert(g.preds, i, t.P)
		} else {
			g.preds = slices.Delete(g.preds, i, i+1)
		}
	}
}

func ascendingSPO(ts []IDTriple) bool {
	for i := 1; i < len(ts); i++ {
		if cmpKey(spo.key(ts[i-1]), spo.key(ts[i])) >= 0 {
			return false
		}
	}
	return true
}

// countingSort stably sorts src into dst by the id col picks. counts is
// scratch with room for the largest id plus two.
func countingSort(dst, src []IDTriple, col func(IDTriple) ID, counts []uint32) {
	clear(counts)
	for _, t := range src {
		counts[col(t)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, t := range src {
		id := col(t)
		dst[counts[id]] = t
		counts[id]++
	}
}

// Len returns the number of live triples in the graph.
func (g *Graph) Len() int { return len(g.spo.c) + len(g.spo.delta) - g.Tombstones() }

// Tombstones reports how many deleted triples the graph still holds, in the
// base arrays or the delta (0 after compaction).
func (g *Graph) Tombstones() int { return g.spo.dead.ones + g.spo.ddead }

// Layout describes a graph's physical state: triples held in the base
// arrays and in the delta (live or tombstoned), the tombstones among them,
// and the heap bytes of all index arrays. Base + Delta - Tombstones = Len.
type Layout struct {
	BaseTriples, DeltaTriples, Tombstones, IndexBytes int
}

// Layout reports the graph's physical state. Every field is a slice length.
func (g *Graph) Layout() Layout {
	return Layout{
		BaseTriples:  len(g.spo.c),
		DeltaTriples: len(g.spo.delta),
		Tombstones:   g.Tombstones(),
		IndexBytes:   g.spo.bytes() + g.pos.bytes() + g.osp.bytes() + 4*(cap(g.psOff)+cap(g.psIDs)) + 8*cap(g.psDead.words),
	}
}

// Triples returns every live triple in SPO order, as a fresh slice.
func (g *Graph) Triples() []IDTriple {
	out := make([]IDTriple, 0, g.Len())
	g.spo.scan(g.spo.span(key{}, 0), func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// add inserts t and reports whether the graph changed (false for a
// duplicate, which RDF set semantics ignore). A tombstoned triple is
// revived in place; anything else new goes to the delta.
func (g *Graph) add(t IDTriple) bool {
	if sp := g.spo.span(spo.key(t), 3); sp.lo < sp.hi {
		if !g.spo.dead.get(sp.lo) {
			return false
		}
		g.mark(t, false)
	} else if g.spo.insert(spo.key(t)) {
		g.pos.insert(pos.key(t))
		g.osp.insert(osp.key(t))
	} else {
		return false
	}
	g.tally(t, +1)
	if len(g.spo.delta) >= deltaMax {
		g.compact()
	}
	return true
}

// delete tombstones t, in the base or in the delta, and reports whether
// the graph changed (false when the triple is absent or already deleted).
func (g *Graph) delete(t IDTriple) bool {
	if sp := g.spo.span(spo.key(t), 3); sp.lo < sp.hi {
		if g.spo.dead.get(sp.lo) {
			return false
		}
		g.mark(t, true)
	} else if g.spo.remove(spo.key(t)) {
		g.pos.remove(pos.key(t))
		g.osp.remove(osp.key(t))
	} else {
		return false
	}
	g.tally(t, -1)
	return true
}

// mark sets base triple t's tombstone bit in every permutation. The (s, p)
// pair leaves p's subject run when its last base triple dies.
func (g *Graph) mark(t IDTriple, dead bool) {
	for _, x := range []*perm{&g.spo, &g.pos, &g.osp} {
		x.dead.set(x.span(x.ord.key(t), 3).lo, dead)
	}
	sp := g.spo.span(key{t.S, t.P}, 2)
	lo, hi := g.psOff[t.P], g.psOff[t.P+1]
	i, _ := slices.BinarySearch(g.psIDs[lo:hi], t.S)
	g.psDead.set(lo+uint32(i), int(sp.hi-sp.lo) == g.spo.dead.count(sp.lo, sp.hi))
}

// access picks the permutation that serves pat (a zero id is a wildcard)
// and resolves pat to a span of it.
func (g *Graph) access(pat IDTriple) (*perm, span) {
	x, k, n := &g.spo, key{pat.S, pat.P, pat.O}, 0
	switch {
	case pat.S != 0 && pat.P != 0 && pat.O != 0:
		n = 3
	case pat.S != 0 && pat.P != 0:
		n = 2
	case pat.P != 0 && pat.O != 0:
		x, k, n = &g.pos, key{pat.P, pat.O}, 2
	case pat.S != 0 && pat.O != 0:
		x, k, n = &g.osp, key{pat.O, pat.S}, 2
	case pat.S != 0:
		n = 1
	case pat.P != 0:
		x, k, n = &g.pos, key{pat.P}, 1
	case pat.O != 0:
		x, k, n = &g.osp, key{pat.O}, 1
	}
	return x, x.span(k, n)
}

// Match streams every live triple matching the pattern, where a zero ID is
// a wildcard, in the order of the permutation that serves the pattern's
// shape: SPO for (s p o), (s p ?), (s ? ?) and (? ? ?), POS for (? p o) and
// (? p ?), OSP for (s ? o) and (? ? o). The callback returns false to stop.
func (g *Graph) Match(pat IDTriple, yield func(IDTriple) bool) {
	x, sp := g.access(pat)
	x.scan(sp, yield)
}

// Cardinality returns the exact number of live triples matching pat — a
// range length minus its tombstones plus its pending inserts, without
// visiting a triple.
func (g *Graph) Cardinality(pat IDTriple) int {
	x, sp := g.access(pat)
	return x.count(sp)
}

// Count returns the number of triples in the graph matching the pattern by
// visiting them; Cardinality answers the same number from range lengths.
func (g *Graph) Count(pat IDTriple) int {
	n := 0
	g.Match(pat, func(IDTriple) bool { n++; return true })
	return n
}
