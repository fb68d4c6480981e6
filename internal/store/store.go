// Package store implements an in-memory RDF quad store: a dictionary that
// encodes terms as dense integer ids plus per-graph triple indexes (SPO, POS,
// OSP) that answer every triple-pattern access path the SPARQL evaluator
// needs. The store is the substitute for the paper's Virtuoso engine.
//
// Mutations (Add, AddAll, the Load* methods, bulk/snapshot installs)
// serialize on an internal write lock and bump a monotonic version counter;
// readers that must not observe a store mid-mutation (the query evaluator)
// bracket their work with RLock/RUnlock. Version() lets caches key results
// to an exact store state: any mutation moves the version, so a cached
// entry from an older version can never be served as current.
package store

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"rdfframes/internal/rdf"
)

// Store holds a dictionary and a set of named graphs.
type Store struct {
	// mu serializes mutations against each other and against readers that
	// take RLock. Plain accessor reads (Len, Graph, ...) are unlocked: they
	// are safe once loading is quiescent, and concurrent-with-writes readers
	// (the query evaluator) hold RLock around whole read transactions.
	mu sync.RWMutex
	// version counts successful mutations; see Version.
	version atomic.Uint64
	// statsEpoch is the planning epoch (see StatsEpoch); epochTotal and
	// total (both guarded by mu) drive its distribution-shift rule, and
	// statsCache memoizes the last Stats snapshot per store version.
	statsEpoch atomic.Uint64
	epochTotal int
	total      int
	statsCache statsCachePtr

	dict   *Dictionary
	graphs map[string]*Graph
	order  []string // graph URIs in insertion order
}

// New returns an empty store.
func New() *Store {
	return &Store{dict: NewDictionary(), graphs: make(map[string]*Graph)}
}

// NewWithDictionary returns an empty store over a pre-built dictionary, the
// entry point for snapshot reconstruction.
func NewWithDictionary(d *Dictionary) *Store {
	return &Store{dict: d, graphs: make(map[string]*Graph)}
}

// Dict exposes the store's dictionary.
func (s *Store) Dict() *Dictionary { return s.dict }

// Version returns the store's mutation epoch: a counter that advances on
// every mutation that changes the store (per triple inserted, per bulk
// graph installed). Two reads returning the same version with no write
// lock held in between are guaranteed to have observed identical data, so
// a cache entry recorded at version v is exact for as long as Version()
// still returns v. Safe to call without any lock.
func (s *Store) Version() uint64 { return s.version.Load() }

// RLock begins a read transaction: mutations are blocked until the
// matching RUnlock. The query evaluator brackets each evaluation with
// RLock/RUnlock so a query never observes a store mid-mutation.
func (s *Store) RLock() { s.mu.RLock() }

// RUnlock ends a read transaction started with RLock.
func (s *Store) RUnlock() { s.mu.RUnlock() }

// Graph returns the named graph, or nil if absent.
func (s *Store) Graph(uri string) *Graph { return s.graphs[uri] }

// graphList resolves graph URIs to handles, defaulting to every graph in
// insertion order (the MatchAny empty-list rule).
func (s *Store) graphList(uris []string) []*Graph {
	if len(uris) == 0 {
		uris = s.order
	}
	gs := make([]*Graph, 0, len(uris))
	for _, u := range uris {
		if g := s.graphs[u]; g != nil {
			gs = append(gs, g)
		}
	}
	return gs
}

// GraphURIs returns all graph URIs in insertion order.
func (s *Store) GraphURIs() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// ensureGraph returns the graph for uri, creating it if needed; created
// reports whether a new graph was installed.
func (s *Store) ensureGraph(uri string) (g *Graph, created bool) {
	g, ok := s.graphs[uri]
	if !ok {
		g = newGraph()
		s.graphs[uri] = g
		s.order = append(s.order, uri)
		created = true
	}
	return g, created
}

// Add inserts one triple into the named graph (duplicates are ignored,
// matching RDF set semantics for a graph). It goes through the graph's
// delta; use AddAll or a Load method for more than a handful.
func (s *Store) Add(graphURI string, t rdf.Triple) error {
	if !t.Valid() {
		return fmt.Errorf("store: invalid triple %s", t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, created := s.ensureGraph(graphURI)
	if g.add(IDTriple{s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)}) {
		s.grewLocked(1, created)
	}
	return nil
}

// grewLocked records that added triples joined the store: one version
// advance per triple, and the stats-epoch rule evaluated at every triple, so
// a bulk load and the same triples added one by one end on the same epoch.
func (s *Store) grewLocked(added int, newGraph bool) {
	s.version.Add(uint64(added))
	for i := 0; i < added; i++ {
		s.total++
		s.maybeBumpEpochLocked(newGraph && i == 0)
	}
}

// bulkLoad is a bulk insert into one graph in progress: add encodes triples
// into a pending list, finish merges the list into the graph's permutations
// in one build. Both run with the write lock held.
type bulkLoad struct {
	s       *Store
	uri     string
	pending []IDTriple
}

func (b *bulkLoad) add(t rdf.Triple) error {
	if !t.Valid() {
		return fmt.Errorf("store: invalid triple %s", t)
	}
	d := b.s.dict
	b.pending = append(b.pending, IDTriple{d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)})
	return nil
}

// finish installs what was added, also after a failed load: the triples
// before the failure are kept, as a triple-by-triple load would keep them.
func (b *bulkLoad) finish() {
	if len(b.pending) == 0 {
		return
	}
	g, created := b.s.ensureGraph(b.uri)
	before := g.Len()
	g.build(append(g.Triples(), b.pending...))
	b.s.grewLocked(g.Len()-before, created)
}

// loadLocked drains next (which ends with io.EOF) into the named graph under
// one write-lock hold and returns the number of triples read.
func (s *Store) loadLocked(graphURI string, next func() (rdf.Triple, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := bulkLoad{s: s, uri: graphURI}
	defer b.finish()
	for n := 0; ; n++ {
		t, err := next()
		if err == io.EOF {
			return n, nil
		}
		if err == nil {
			err = b.add(t)
		}
		if err != nil {
			return n, err
		}
	}
}

// AddAll inserts all triples into the named graph and merges the graph
// once at the end.
func (s *Store) AddAll(graphURI string, triples []rdf.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := bulkLoad{s: s, uri: graphURI}
	defer b.finish()
	for _, t := range triples {
		if err := b.add(t); err != nil {
			return err
		}
	}
	return nil
}

// BulkGraph installs a complete graph from dictionary-encoded triples, in
// any order, in one build; only id validity is checked. BulkGraph takes
// ownership of the triples slice.
func (s *Store) BulkGraph(graphURI string, triples []IDTriple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g := s.graphs[graphURI]; g != nil && g.Len() > 0 {
		return fmt.Errorf("store: bulk load into non-empty graph <%s>", graphURI)
	}
	if uint64(len(triples)) > math.MaxUint32 {
		return fmt.Errorf("store: graph of %d triples exceeds the uint32 position space", len(triples))
	}
	maxID := ID(s.dict.Len())
	for _, t := range triples {
		if t.S == 0 || t.S > maxID || t.P == 0 || t.P > maxID || t.O == 0 || t.O > maxID {
			return fmt.Errorf("store: triple (%d %d %d) references an id outside the %d-term dictionary", t.S, t.P, t.O, maxID)
		}
	}
	g, created := s.ensureGraph(graphURI)
	g.build(triples)
	// One bump per triple installed (so the version tracks data volume like
	// the incremental path) plus one for the graph install itself, which
	// changes GraphURIs even when the graph is empty.
	s.version.Add(uint64(g.Len()) + 1)
	s.total += g.Len()
	s.maybeBumpEpochLocked(created)
	return nil
}

// LoadNTriples parses an N-Triples document from r into the named graph and
// returns the number of triples loaded.
func (s *Store) LoadNTriples(graphURI string, r io.Reader) (int, error) {
	return s.loadLocked(graphURI, rdf.NewNTriplesReader(r).Read)
}

// LoadNTriplesParallel parses an N-Triples document with a pool of parser
// workers and returns the number of triples read. workers <= 0 uses one
// worker per available CPU. Parsed batches are interned under the write
// lock one batch at a time, so a long ingest does not starve concurrent
// readers; the triples become visible together, when the graph is merged
// at the end.
func (s *Store) LoadNTriplesParallel(graphURI string, r io.Reader, workers int) (int, error) {
	b := bulkLoad{s: s, uri: graphURI}
	err := rdf.ParseNTriplesParallel(r, workers, func(batch []rdf.Triple) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, t := range batch {
			if err := b.add(t); err != nil {
				return err
			}
		}
		return nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	b.finish()
	return len(b.pending), err
}

// LoadTurtle parses a Turtle document from r into the named graph and
// returns the number of triples loaded.
func (s *Store) LoadTurtle(graphURI string, r io.Reader) (int, error) {
	return s.loadLocked(graphURI, rdf.NewTurtleReader(r).Read)
}

// Len returns the total number of triples across all graphs.
func (s *Store) Len() int {
	n := 0
	for _, g := range s.graphs {
		n += g.Len()
	}
	return n
}

// MatchAny streams every triple matching the pattern, where a zero
// (unbound) ID matches anything, from each of the given graphs in order.
// Graphs absent from the store match nothing; an empty graph list matches
// across all graphs in the store. The callback returns false to stop.
func (s *Store) MatchAny(graphURIs []string, pat IDTriple, yield func(IDTriple) bool) {
	for _, g := range s.graphList(graphURIs) {
		if x, sp := g.access(pat); !x.scan(sp, yield) {
			return
		}
	}
}

// Cardinality sums the exact match count over the given graphs (all graphs
// if empty).
func (s *Store) Cardinality(graphURIs []string, pat IDTriple) int {
	n := 0
	for _, g := range s.graphList(graphURIs) {
		n += g.Cardinality(pat)
	}
	return n
}
