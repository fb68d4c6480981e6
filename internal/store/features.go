package store

// Store-side topology features for graph-ML feature extraction: per-node
// in/out degree and bounded 2-hop neighborhood sizes, computed entirely in
// id space off the SPO/OSP permutations — no term is decoded. Like the sorted
// runs, these readers assume the caller holds the store read lock, so a
// feature sweep sees one consistent store version.

// NodeFeatures is the topology feature row of one node: its live edge
// counts and the sizes of its 1+2-hop neighborhoods (distinct nodes
// reachable in at most two hops, excluding the node itself, capped).
type NodeFeatures struct {
	Node      ID
	OutDegree int
	InDegree  int
	Out2Hop   int
	In2Hop    int
}

// FeatureSweep computes NodeFeatures over one graph list, resolved once.
// Degrees count live edges per graph — a triple stored in two graphs counts
// twice, matching how pattern matching sees the union. A 2-hop count is
// min(hopCap, |N1 ∪ N2 \ {node}|), where N1 is the node's live out- (or
// in-) neighbors across the graphs and N2 theirs; hopCap 0 means unbounded.
// The count is a set size, so it does not depend on the order the
// neighbors are visited in, and a capped count stops as soon as it reaches
// the cap. A sweep only reads the store: any number of goroutines may run
// one while the caller holds the read lock, each with its own HopScratch.
type FeatureSweep struct {
	gs     []*Graph
	hopCap int
}

// FeatureSweep returns a sweep over the given graphs (all graphs when the
// list is empty). The caller must hold the store read lock for as long as
// the sweep runs.
func (s *Store) FeatureSweep(graphURIs []string, hopCap int) FeatureSweep {
	return FeatureSweep{gs: s.graphList(graphURIs), hopCap: hopCap}
}

// NodeFeatures computes the topology features of one node over the given
// graphs (all graphs when the list is empty): a sweep of one node. The
// caller must hold the store read lock.
func (s *Store) NodeFeatures(graphURIs []string, node ID, hopCap int) NodeFeatures {
	var out [1]NodeFeatures
	s.FeatureSweep(graphURIs, hopCap).Run([]ID{node}, out[:], &HopScratch{})
	return out[0]
}

// HopScratch is one goroutine's reusable memory for a sweep: the 2-hop id
// set, cleared for every count and grown only by what it holds, and the
// first-hop list. The zero value is ready to use.
type HopScratch struct {
	set   map[ID]struct{}
	first []ID
}

// Run writes the features of nodes[i] to out[i] for every i; out must be
// at least as long as nodes. A zero id, a node the store does not hold,
// gets all-zero features.
func (fs FeatureSweep) Run(nodes []ID, out []NodeFeatures, sc *HopScratch) {
	for i, node := range nodes {
		nf := NodeFeatures{Node: node}
		if node != 0 {
			for _, g := range fs.gs {
				nf.OutDegree += g.Cardinality(IDTriple{S: node})
				nf.InDegree += g.Cardinality(IDTriple{O: node})
			}
			nf.Out2Hop = fs.twoHop(node, true, sc)
			nf.In2Hop = fs.twoHop(node, false, sc)
		}
		out[i] = nf
	}
}

// twoHop counts the distinct nodes within at most two hops of node,
// following edge direction when out and against it otherwise, excluding
// node itself, and stops at the cap.
func (fs FeatureSweep) twoHop(node ID, out bool, sc *HopScratch) int {
	if sc.set == nil {
		sc.set = make(map[ID]struct{})
	}
	set := sc.set
	clear(set)
	set[node] = struct{}{}
	limit := 0
	if fs.hopCap > 0 {
		limit = fs.hopCap + 1 // the node itself and the nodes it counts
	}
	open := func() bool { return len(set) != limit }
	first := sc.first[:0]
	for _, g := range fs.gs {
		if !open() {
			break
		}
		g.neighbors(node, out, func(v ID) bool {
			if _, ok := set[v]; !ok {
				set[v] = struct{}{}
				first = append(first, v)
			}
			return open()
		})
	}
	sc.first = first
	for _, v := range first {
		for _, g := range fs.gs {
			if !open() {
				return len(set) - 1
			}
			g.neighbors(v, out, func(w ID) bool {
				set[w] = struct{}{}
				return open()
			})
		}
	}
	return len(set) - 1
}

// neighbors calls yield with every live out- (or in-) neighbor of node in
// the graph, possibly more than once, until yield returns false. Out-
// neighbors are the SPO permutation's third level under node, in-neighbors
// the OSP permutation's second.
func (g *Graph) neighbors(node ID, out bool, yield func(ID) bool) {
	if out {
		g.spo.under(node, 2, yield)
	} else {
		g.osp.under(node, 1, yield)
	}
}

// under calls yield with component col (1 or 2) of every live key whose
// first component is a — the base entries, then the delta's — until yield
// returns false. Under col 1 each distinct second component comes once
// from the base; under col 2 a value repeats once per second component.
func (x *perm) under(a ID, col int, yield func(ID) bool) {
	if int(a)+1 < len(x.aoff) {
		jlo, jhi := x.aoff[a], x.aoff[a+1]
		if col == 1 {
			for j := jlo; j < jhi; j++ {
				if lo, hi := x.coff[j], x.coff[j+1]; int(hi-lo) > x.dead.count(lo, hi) && !yield(x.b[j]) {
					return
				}
			}
		} else {
			for i, end := x.coff[jlo], x.coff[jhi]; i < end; i++ {
				if (x.dead.ones == 0 || !x.dead.get(i)) && !yield(x.c[i]) {
					return
				}
			}
		}
	}
	for _, p := range x.deltaRange(key{a}, 1) {
		if !p.dead && !yield(p.key[col]) {
			return
		}
	}
}
