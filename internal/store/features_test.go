package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
)

// refNodeFeatures is the per-node algorithm the sweep replaced, kept as its
// reference: sorted distinct neighbor lists, merged across graphs through a
// map, and a map of the nodes seen so far, counted until the cap.
func refNodeFeatures(s *Store, graphURIs []string, node ID, hopCap int) NodeFeatures {
	gs := s.graphList(graphURIs)
	nf := NodeFeatures{Node: node}
	for _, g := range gs {
		nf.OutDegree += g.Cardinality(IDTriple{S: node})
		nf.InDegree += g.Cardinality(IDTriple{O: node})
	}
	nf.Out2Hop = refTwoHop(gs, node, true, hopCap)
	nf.In2Hop = refTwoHop(gs, node, false, hopCap)
	return nf
}

func refNeighbors(g *Graph, node ID, out bool) []ID {
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

func refNeighborUnion(gs []*Graph, node ID, out bool) []ID {
	seen := map[ID]struct{}{}
	var ids []ID
	for _, g := range gs {
		for _, v := range refNeighbors(g, node, out) {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				ids = append(ids, v)
			}
		}
	}
	slices.Sort(ids)
	return ids
}

func refTwoHop(gs []*Graph, node ID, out bool, hopCap int) int {
	first := refNeighborUnion(gs, node, out)
	seen := map[ID]struct{}{node: {}}
	count := 0
	full := func() bool { return hopCap > 0 && count >= hopCap }
	for _, v := range first {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			if count++; full() {
				return count
			}
		}
	}
	for _, v := range first {
		if v == node {
			continue
		}
		for _, w := range refNeighborUnion(gs, v, out) {
			if _, ok := seen[w]; !ok {
				seen[w] = struct{}{}
				if count++; full() {
					return count
				}
			}
		}
	}
	return count
}

// randomFeatureStore builds a store of three graphs over a small node pool
// whose reads cross every layout the sweep must see: bulk-loaded base
// triples, some held in two graphs, self-loops, pending inserts in the
// delta, and deletes of both base triples (tombstones) and pending ones.
func randomFeatureStore(t *testing.T, rng *rand.Rand) *Store {
	t.Helper()
	s := New()
	graphs := []string{"http://g/a", "http://g/b", "http://g/c"}
	nodes := 10 + rng.Intn(40)
	node := func() rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/n%d", rng.Intn(nodes))) }
	triple := func() rdf.Triple {
		s1, o := node(), node()
		if rng.Intn(10) == 0 {
			o = s1 // a self-loop
		}
		return rdf.Triple{S: s1, P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(3))), O: o}
	}
	var loaded []UpdateOp
	for _, g := range graphs {
		base := make([]rdf.Triple, rng.Intn(4*nodes))
		for i := range base {
			base[i] = triple()
		}
		if err := s.AddAll(g, base); err != nil {
			t.Fatal(err)
		}
		for _, tr := range base {
			loaded = append(loaded, UpdateOp{Graph: g, Triple: tr})
		}
	}
	var ops []UpdateOp
	for range rng.Intn(3 * nodes) {
		tr := triple()
		ops = append(ops, UpdateOp{Insert: true, Graph: graphs[rng.Intn(len(graphs))], Triple: tr})
		if rng.Intn(4) == 0 { // the same triple in a second graph
			ops = append(ops, UpdateOp{Insert: true, Graph: graphs[rng.Intn(len(graphs))], Triple: tr})
		}
	}
	for _, op := range loaded {
		if rng.Intn(5) == 0 {
			ops = append(ops, UpdateOp{Graph: op.Graph, Triple: op.Triple})
		}
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	var dels []UpdateOp
	for _, op := range ops {
		if op.Insert && rng.Intn(5) == 0 {
			dels = append(dels, UpdateOp{Graph: op.Graph, Triple: op.Triple})
		}
	}
	if _, err := s.ApplyBatch(dels); err != nil {
		t.Fatal(err)
	}
	return s
}

// The batch sweep equals the reference on random multi-graph stores, for
// every node (and the zero id), every cap and several graph lists, with
// one scratch reused across all of them.
func TestFeatureSweepMatchesReference(t *testing.T) {
	const defaultHopCap = 1024 // sparql.DefaultHopCap
	var sc HopScratch
	layouts := Layout{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomFeatureStore(t, rng)
		for _, uri := range s.GraphURIs() {
			l := s.Graph(uri).Layout()
			layouts.DeltaTriples += l.DeltaTriples
			layouts.Tombstones += l.Tombstones
		}
		ids := make([]ID, s.Dict().Len()+1) // every id and the zero id
		for i := range ids {
			ids[i] = ID(i)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, graphs := range [][]string{nil, {"http://g/b"}, {"http://g/c", "http://g/a"}} {
			for _, hopCap := range []int{0, 1, 3, defaultHopCap} {
				got := make([]NodeFeatures, len(ids))
				s.FeatureSweep(graphs, hopCap).Run(ids, got, &sc)
				for i, id := range ids {
					want := NodeFeatures{Node: id}
					if id != 0 {
						want = refNodeFeatures(s, graphs, id, hopCap)
					}
					if got[i] != want {
						t.Fatalf("seed %d, graphs %v, cap %d: node %d = %+v, want %+v", seed, graphs, hopCap, id, got[i], want)
					}
				}
			}
		}
	}
	if layouts.DeltaTriples == 0 || layouts.Tombstones == 0 {
		t.Fatalf("the stores held %d pending and %d deleted triples; the sweep must see both", layouts.DeltaTriples, layouts.Tombstones)
	}
}

// A sweep allocates nothing once its scratch has grown to the work: not
// per node, not per 2-hop set, capped or not.
func TestFeatureSweepAllocatesNothing(t *testing.T) {
	s := randomFeatureStore(t, rand.New(rand.NewSource(7)))
	ids := make([]ID, s.Dict().Len())
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	out := make([]NodeFeatures, len(ids))
	for _, hopCap := range []int{0, 3} {
		sweep := s.FeatureSweep(nil, hopCap)
		var sc HopScratch
		sweep.Run(ids, out, &sc)
		if n := testing.AllocsPerRun(10, func() { sweep.Run(ids, out, &sc) }); n != 0 {
			t.Errorf("cap %d: a sweep of %d nodes allocates %.0f times", hopCap, len(ids), n)
		}
	}
}

// A cap far above every neighborhood counts what no cap counts, and the id
// set grows only with the members it holds, whatever the cap.
func TestFeatureSweepHugeCap(t *testing.T) {
	s := randomFeatureStore(t, rand.New(rand.NewSource(3)))
	ids := make([]ID, s.Dict().Len())
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	want := make([]NodeFeatures, len(ids))
	s.FeatureSweep(nil, 0).Run(ids, want, &HopScratch{})
	for _, hopCap := range []int{1 << 30, 1 << 40, math.MaxInt} {
		got := make([]NodeFeatures, len(ids))
		s.FeatureSweep(nil, hopCap).Run(ids, got, &HopScratch{})
		if !slices.Equal(got, want) {
			t.Fatalf("cap %d: features differ from the unbounded sweep's", hopCap)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.FeatureSweep(nil, hopCap).Run(ids, got, &HopScratch{})
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("cap %d: a sweep of %d nodes allocated %d bytes", hopCap, len(ids), n)
		}
	}
}
