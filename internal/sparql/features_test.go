package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// featureStore is a random graph of 3,000 nodes, several feature morsels'
// worth, with a few hubs so that capped counts stop early.
func featureStore(t *testing.T) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i)) }
	var triples []rdf.Triple
	for i := range 3000 {
		for range 1 + rng.Intn(4) {
			o := rng.Intn(3000)
			if rng.Intn(8) == 0 {
				o = rng.Intn(5) // a hub
			}
			triples = append(triples, rdf.Triple{S: node(i), P: rdf.NewIRI("http://ex/link"), O: node(o)})
		}
	}
	s := store.New()
	if err := s.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	return s
}

// Features is the same result at every Parallelism, and a cancelled
// context ends it with an error.
func TestFeaturesIndependentOfParallelism(t *testing.T) {
	st := featureStore(t)
	spec := FeatureSpec{Query: `SELECT ?s WHERE { ?s <http://ex/link> ?o }`, HopCap: 64}
	var want *Results
	for _, workers := range []int{1, 2, 4} {
		e := NewEngine(st)
		e.Parallelism = workers
		got, err := e.Features(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 3000 {
			t.Fatalf("%d workers: %d rows, want one per node (3000)", workers, len(got.Rows))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: features differ from 1 worker's", workers)
		}
	}

	for _, workers := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = workers
		ctx, cancel := context.WithCancel(context.Background())
		e.SetEvalHook(func(context.Context) error { cancel(); return nil })
		if _, err := e.Features(ctx, spec); err == nil {
			t.Fatalf("%d workers: a cancelled context returned features", workers)
		}
		cancel()
	}
}

// The sweep that follows the query checks for cancellation itself, before
// every morsel, on the serial path as on the pool.
func TestFeatureSweepStopsWhenCancelled(t *testing.T) {
	st := featureStore(t)
	ids := make([]store.ID, st.Dict().Len())
	for i := range ids {
		ids[i] = store.ID(i + 1)
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = workers
		ctx, cancel := context.WithCancel(context.Background())
		ev := e.newEvaluator(ctx, false)
		st.RLock()
		if _, err := ev.sweepFeatures(st.FeatureSweep(nil, 64), ids); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		cancel()
		_, err := ev.sweepFeatures(st.FeatureSweep(nil, 64), ids)
		st.RUnlock()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: a cancelled sweep returned %v, want context.Canceled", workers, err)
		}
	}
}

// A cap larger than any neighborhood counts the same as no cap: the id set
// is sized by what it holds, never by the cap a client asks for.
func TestFeaturesHugeCapIsUnbounded(t *testing.T) {
	e := NewEngine(featureStore(t))
	spec := FeatureSpec{Query: `SELECT ?s WHERE { ?s <http://ex/link> ?o }`, HopCap: -1}
	want, err := e.Features(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, hopCap := range []int{1 << 30, 1 << 40, math.MaxInt} {
		spec.HopCap = hopCap
		got, err := e.Features(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: features differ from the unbounded ones", hopCap)
		}
	}
}
