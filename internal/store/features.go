package store

import "slices"

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

// NodeFeatures computes the topology features of node over the given
// graphs (all graphs when the list is empty). Degrees count live edges
// per graph — a triple stored in two graphs counts twice, matching how
// pattern matching sees the union. hopCap bounds each 2-hop count; 0
// means unbounded. The caller must hold the store read lock.
func (s *Store) NodeFeatures(graphURIs []string, node ID, hopCap int) NodeFeatures {
	gs := s.graphList(graphURIs)
	nf := NodeFeatures{Node: node}
	for _, g := range gs {
		nf.OutDegree += g.Cardinality(IDTriple{S: node})
		nf.InDegree += g.Cardinality(IDTriple{O: node})
	}
	nf.Out2Hop = twoHopCount(gs, node, true, hopCap)
	nf.In2Hop = twoHopCount(gs, node, false, hopCap)
	return nf
}

// neighborIDs returns the sorted distinct live out- (or in-) neighbors of
// node. In-neighbors are the OSP permutation's second level under node;
// out-neighbors are gathered across node's predicates and sorted. Sorting
// makes capped 2-hop counts deterministic: the cap always cuts the same
// expansion order.
func (g *Graph) neighborIDs(node ID, out bool) []ID {
	if !out {
		return g.osp.mid(node)
	}
	var ids []ID
	g.Match(IDTriple{S: node}, func(t IDTriple) bool {
		ids = append(ids, t.O)
		return true
	})
	slices.Sort(ids)
	return slices.Compact(ids)
}

// neighborUnion merges per-graph neighbor sets into one sorted distinct
// slice.
func neighborUnion(gs []*Graph, node ID, out bool) []ID {
	if len(gs) == 1 {
		return gs[0].neighborIDs(node, out)
	}
	seen := map[ID]struct{}{}
	var ids []ID
	for _, g := range gs {
		for _, v := range g.neighborIDs(node, out) {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				ids = append(ids, v)
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// twoHopCount counts the distinct nodes within at most two hops of node
// (following edge direction when out, against it otherwise), excluding
// node itself, stopping once hopCap distinct nodes are counted (0 = no
// cap). First-hop nodes are counted before any second-hop expansion, and
// every sweep runs in ascending id order, so a capped count is a
// deterministic function of the graph.
func twoHopCount(gs []*Graph, node ID, out bool, hopCap int) int {
	first := neighborUnion(gs, node, out)
	seen := map[ID]struct{}{node: {}}
	count := 0
	full := func() bool { return hopCap > 0 && count >= hopCap }
	for _, v := range first {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		count++
		if full() {
			return count
		}
	}
	for _, v := range first {
		if v == node {
			continue
		}
		for _, w := range neighborUnion(gs, v, out) {
			if _, ok := seen[w]; ok {
				continue
			}
			seen[w] = struct{}{}
			count++
			if full() {
				return count
			}
		}
	}
	return count
}
