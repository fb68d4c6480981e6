package sparql

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rdfframes/internal/sparql/plan"
	"rdfframes/internal/store"
)

// Worst-case-optimal multiway joins. A BGP segment whose shape is a star or
// a cycle — some variable shared by three or more triple patterns — can be
// evaluated as one leapfrog triejoin: pick a global variable order, and at
// each level intersect, by sorted-run seeking, the candidate values every
// pattern mentioning that variable admits. The intersection touches each
// run a number of times proportional to the smallest run, not the largest,
// which is exactly where binary join pipelines lose: a hub join first
// materializes every (hub, leaf) pair of the least selective pattern before
// later patterns can cut it down.
//
// The planner decides per group's leading segment (tryWCOJ): structural
// eligibility plus a cost comparison between plan.WCOJ's level model and
// the binary plan the same segment would get. The executor (evalWCOJ)
// walks the trie levels recursively over store.RunIterator intersections;
// the outermost level is materialized first so the morsel pool can
// range-partition its values, with partial batches merged in value order —
// making parallel output byte-identical to serial output, which in turn
// equals the binary pipeline's output because single-graph patterns are
// duplicate-free sets and the top-level canonical ordering erases
// execution order.

// wcojMorsel is the number of outermost-variable values per parallel
// enumeration part. Each value expands into a whole subtree, so parts are
// much smaller than row morsels to keep the pool load-balanced.
const wcojMorsel = 64

// execCounters are the engine's executor counters, exported as the
// rdfframes_wcoj_*, rdfframes_join_* and rdfframes_subplan_* metrics.
type execCounters struct {
	segments       atomic.Uint64 // segments executed by the trie walk
	seeks          atomic.Uint64 // sorted-run iterator seeks
	backtracks     atomic.Uint64 // dead-end prefixes abandoned mid-walk
	joinCandidates atomic.Int64  // candidate pairs checked by joins
	joinRows       atomic.Int64  // rows joins emitted
	subplanReuses  atomic.Int64  // subplans answered from an evaluation's memo
}

// wcojPat is one triple pattern compiled for the trie walk: its constant
// predicate, and per position either the variable's level in the
// elimination order or the constant id.
type wcojPat struct {
	pred           store.ID
	sLevel, oLevel int      // level of the S/O variable; -1 marks a constant
	sID, oID       store.ID // constant ids (meaningful when the level is -1)
}

// wcojSeg is the planned worst-case-optimal execution of one BGP segment.
// Immutable after planning except for the Actual counters of its plan
// nodes, which only tracked (EXPLAIN) plans record.
type wcojSeg struct {
	// graph is the single active graph the segment is scoped to; multi-graph
	// scopes keep bag multiplicity and are never planned as WCOJ.
	graph    string
	varOrder []string
	pats     []wcojPat
	// levelPats[k] lists the patterns participating in level k's
	// intersection (every pattern mentioning varOrder[k]).
	levelPats [][]int
	// node is the "wcoj" plan-tree operator; levels its per-level children.
	node   *plan.Node
	levels []*plan.Node
}

// tryWCOJ decides whether a group's leading BGP segment should run as a
// leapfrog triejoin and compiles the segment descriptor if so. Being
// leading, the segment evaluates from the unit solution, which is what the
// walk starts from. Eligibility: the WCOJ knob is on, the segment is
// scoped to exactly one graph (single-graph patterns are duplicate-free
// sets, which is what makes the set-enumerating trie walk bag-equivalent
// to the binary pipeline), every pattern has a constant predicate, at
// least one variable, no repeated variable, and every constant resolves in
// the dictionary (an unresolvable constant matches nothing — the binary
// path short-circuits that faster). Shape and cost are then delegated to
// plan.WCOJ: some variable must be shared by >= 3 patterns, and the
// modeled trie cost must beat the binary plan's summed intermediate
// cardinalities.
func (p *planner) tryWCOJ(patterns []TriplePattern, pats []plan.Pattern, active []string, est []float64) *wcojSeg {
	if p.noWCOJ || len(active) != 1 {
		return nil
	}
	for _, pat := range patterns {
		if pat.P.IsVar {
			return nil
		}
		if !pat.S.IsVar && !pat.O.IsVar {
			return nil
		}
		if pat.S.IsVar && pat.O.IsVar && pat.S.Var == pat.O.Var {
			return nil
		}
		for _, n := range []Node{pat.S, pat.P, pat.O} {
			if !n.IsVar {
				if _, ok := p.dict.Lookup(n.Term); !ok {
					return nil
				}
			}
		}
	}
	wp, ok := plan.WCOJ(pats)
	if !ok {
		return nil
	}
	binCost := 0.0
	for _, e := range est {
		binCost += e
	}
	// Ties go to the trie walk: the model counts enumerated rows, and at
	// equal row counts the binary pipeline still materializes every
	// intermediate while the walk only advances iterators. Uniform stars
	// (every pattern the same hub cardinality) land exactly on this tie.
	if wp.Cost > binCost {
		return nil
	}

	level := make(map[string]int, len(wp.VarOrder))
	for i, v := range wp.VarOrder {
		level[v] = i
	}
	seg := &wcojSeg{graph: active[0], varOrder: wp.VarOrder}
	for _, pat := range patterns {
		w := wcojPat{sLevel: -1, oLevel: -1}
		w.pred, _ = p.dict.Lookup(pat.P.Term)
		if pat.S.IsVar {
			w.sLevel = level[pat.S.Var]
		} else {
			w.sID, _ = p.dict.Lookup(pat.S.Term)
		}
		if pat.O.IsVar {
			w.oLevel = level[pat.O.Var]
		} else {
			w.oID, _ = p.dict.Lookup(pat.O.Term)
		}
		seg.pats = append(seg.pats, w)
	}
	seg.levelPats = make([][]int, len(wp.VarOrder))
	for pi := range seg.pats {
		if l := seg.pats[pi].sLevel; l >= 0 {
			seg.levelPats[l] = append(seg.levelPats[l], pi)
		}
		if l := seg.pats[pi].oLevel; l >= 0 {
			seg.levelPats[l] = append(seg.levelPats[l], pi)
		}
	}

	quoted := make([]string, len(wp.VarOrder))
	for i, v := range wp.VarOrder {
		quoted[i] = "?" + v
	}
	seg.node = plan.NewNode("wcoj", strings.Join(quoted, " "))
	seg.levels = make([]*plan.Node, len(wp.VarOrder))
	for i, v := range wp.VarOrder {
		ln := plan.NewNode("intersect", fmt.Sprintf("?%s ×%d", v, len(seg.levelPats[i])))
		ln.Est = wp.LevelEst[i]
		seg.levels[i] = ln
		seg.node.Add(ln)
	}
	return seg
}

// runAt resolves the sorted run pattern pi contributes to level k's
// intersection, given the assignment of earlier levels: an exact leaf run
// when the pattern's other position is a constant or an already-assigned
// variable, or the pattern's full per-predicate run when the other variable
// is assigned deeper in the order.
func (w *wcojSeg) runAt(g *store.Graph, pi, k int, asg []store.ID) store.Run {
	pt := &w.pats[pi]
	if pt.sLevel == k {
		switch {
		case pt.oLevel < 0:
			return g.SubjectsPO(pt.pred, pt.oID)
		case pt.oLevel < k:
			return g.SubjectsPO(pt.pred, asg[pt.oLevel])
		default:
			return g.SubjectsOfPred(pt.pred)
		}
	}
	switch {
	case pt.sLevel < 0:
		return g.ObjectsSP(pt.sID, pt.pred)
	case pt.sLevel < k:
		return g.ObjectsSP(asg[pt.sLevel], pt.pred)
	default:
		return g.ObjectsOfPred(pt.pred)
	}
}

// wcojWalker enumerates one (sub)tree of the trie: the recursive level
// walk with its per-level iterator scratch, assignment prefix, output
// writer, and local counters. Each pool goroutine owns a walker; their
// counters merge serially after the pool drains.
type wcojWalker struct {
	seg    *wcojSeg
	g      *store.Graph
	tk     *ticker
	out    partWriter
	asg    []store.ID
	counts []int64 // assignments enumerated per level
	seeks  uint64
	backs  uint64
	its    [][]store.RunIterator
}

func newWCOJWalker(seg *wcojSeg, g *store.Graph, tk *ticker) *wcojWalker {
	nv := len(seg.varOrder)
	w := &wcojWalker{
		seg: seg, g: g, tk: tk, out: partWriter{width: nv},
		asg:    make([]store.ID, nv),
		counts: make([]int64, nv),
		its:    make([][]store.RunIterator, nv),
	}
	for k := range w.its {
		w.its[k] = make([]store.RunIterator, len(seg.levelPats[k]))
	}
	return w
}

// align leapfrogs the iterators to their next common value at or above x.
// ok is false when any iterator exhausts first.
func (w *wcojWalker) align(its []store.RunIterator, x store.ID) (v store.ID, ok bool) {
	for {
		target, aligned := x, true
		for j := range its {
			it := &its[j]
			if it.At() < target {
				w.seeks++
				it.Seek(target)
				if it.Done() {
					return 0, false
				}
			}
			if it.At() > target {
				target, aligned = it.At(), false
			}
		}
		if aligned {
			return target, true
		}
		x = target
	}
}

// forEachAligned calls fn for every value present in all iterators, in
// ascending order, returning how many values were visited. All iterators
// must be non-empty and freshly positioned.
func (w *wcojWalker) forEachAligned(its []store.RunIterator, fn func(v store.ID) error) (n int, err error) {
	x := its[0].At()
	for {
		if err := w.tk.tick(); err != nil {
			return n, err
		}
		v, ok := w.align(its, x)
		if !ok {
			return n, nil
		}
		n++
		if err := fn(v); err != nil {
			return n, err
		}
		it0 := &its[0]
		it0.Next()
		if it0.Done() {
			return n, nil
		}
		x = it0.At()
	}
}

// initLevel positions level k's iterators for the current prefix; empty is
// true when some participating run is empty (a dead end).
func (w *wcojWalker) initLevel(k int) (its []store.RunIterator, empty bool) {
	its = w.its[k]
	for j, pi := range w.seg.levelPats[k] {
		r := w.seg.runAt(w.g, pi, k, w.asg)
		if len(r) == 0 {
			return nil, true
		}
		its[j] = store.NewRunIterator(r)
	}
	return its, false
}

// walk enumerates levels [level, last] under the current prefix.
func (w *wcojWalker) walk(level int) error {
	if pats := w.seg.levelPats[level]; len(pats) == 1 {
		return w.walkSingle(level, pats[0])
	}
	its, empty := w.initLevel(level)
	if empty {
		w.backs++
		return nil
	}
	last := level == len(w.seg.varOrder)-1
	n, err := w.forEachAligned(its, func(v store.ID) error {
		w.asg[level] = v
		if last {
			copy(w.out.next(), w.asg)
			return nil
		}
		return w.walk(level + 1)
	})
	w.counts[level] += int64(n)
	if err != nil {
		return err
	}
	if n == 0 {
		w.backs++
	}
	return nil
}

// walkSingle is walk for a level with exactly one participating pattern —
// the common leaf levels of a star, where the "intersection" is just the
// pattern's own run. Every element is a match, so the run is enumerated
// directly without iterator or leapfrog machinery (and without seeks: a
// one-iterator align never seeks either).
func (w *wcojWalker) walkSingle(level, pi int) error {
	r := w.seg.runAt(w.g, pi, level, w.asg)
	if len(r) == 0 {
		w.backs++
		return nil
	}
	last := level == len(w.seg.varOrder)-1
	for _, v := range r {
		if err := w.tk.tick(); err != nil {
			return err
		}
		w.asg[level] = v
		if last {
			copy(w.out.next(), w.asg)
			continue
		}
		if err := w.walk(level + 1); err != nil {
			return err
		}
	}
	w.counts[level] += int64(len(r))
	return nil
}

// expand enumerates the subtree rooted at outermost value v.
func (w *wcojWalker) expand(v store.ID) error {
	w.asg[0] = v
	if len(w.seg.varOrder) == 1 {
		copy(w.out.next(), w.asg)
		return nil
	}
	return w.walk(1)
}

// intersect0 materializes the outermost level's intersection. The values
// come back ascending, so partitioning them preserves enumeration order.
func (w *wcojWalker) intersect0() ([]store.ID, error) {
	its, empty := w.initLevel(0)
	if empty {
		return nil, nil
	}
	var vals []store.ID
	_, err := w.forEachAligned(its, func(v store.ID) error {
		vals = append(vals, v)
		return nil
	})
	return vals, err
}

// evalWCOJ runs one planned WCOJ segment from the unit solution and
// returns the segment's solutions with one column per variable, in
// elimination order (joins and projection downstream are by name, and the
// top-level canonical ordering erases column-order differences). The
// outermost level is materialized and, on the worker pool, range-
// partitioned; each pool goroutine's walker writes its parts, which merge
// in value order, so output is byte-identical at every parallelism setting.
func (ev *evaluator) evalWCOJ(seg *wcojSeg) (*idRows, error) {
	vars := append([]string(nil), seg.varOrder...)
	g := ev.store.Graph(seg.graph)
	if g == nil {
		if ev.track {
			for _, ln := range seg.levels {
				ln.Record(0)
			}
			seg.node.Record(0)
		}
		return newIDRows(vars), nil
	}

	w := newWCOJWalker(seg, g, &ev.tk)
	vals, err := w.intersect0()
	if err != nil {
		return nil, err
	}
	w.counts[0] = int64(len(vals))

	bounds := [][2]int{{0, len(vals)}}
	if ev.workers > 1 && len(vals) > wcojMorsel {
		bounds = store.ChunkBounds(len(vals), wcojMorsel)
	}
	// One walker per pool slot; slot 0's is the one that walked the
	// outermost level, re-pointed at whichever ticker runs the slot.
	walkers := make([]*wcojWalker, max(ev.workers, 1))
	walkers[0] = w
	parts := make([]pipePart, len(bounds))
	err = ev.forEachPart(len(bounds), func(p int, tk *ticker) error {
		pw := walkers[tk.slot]
		if pw == nil {
			pw = newWCOJWalker(seg, g, tk)
			walkers[tk.slot] = pw
		}
		pw.tk = tk
		for _, v := range vals[bounds[p][0]:bounds[p][1]] {
			if err := pw.expand(v); err != nil {
				return err
			}
		}
		parts[p] = pw.out.take()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := mergePipeParts(vars, parts)
	for _, pw := range walkers[1:] {
		if pw == nil {
			continue
		}
		for k := 1; k < len(w.counts); k++ {
			w.counts[k] += pw.counts[k]
		}
		w.seeks += pw.seeks
		w.backs += pw.backs
	}

	if ev.ctr != nil {
		ev.ctr.segments.Add(1)
		ev.ctr.seeks.Add(w.seeks)
		ev.ctr.backtracks.Add(w.backs)
	}
	if ev.track {
		for k, ln := range seg.levels {
			ln.Record(int(w.counts[k]))
		}
		seg.node.Record(out.n)
	}
	return out, nil
}
