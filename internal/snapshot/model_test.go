package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// A model-based differential test of the store: a program of inserts,
// deletes, re-inserts, bulk loads, compactions and snapshot round trips runs
// against the real store and against a naive set of triples, and after every
// step each read path of the store must agree with the set. The checker
// shares no code with the store. It lives here rather than in the store's
// own package because a program step reopens the store from its snapshot.

// model is the reference: per graph, the set of live triples.
type model map[string]map[store.IDTriple]struct{}

// modelOf reads a store's content back as a model through Graph.Triples.
func modelOf(st *store.Store) model {
	m := model{}
	for _, uri := range st.GraphURIs() {
		m[uri] = map[store.IDTriple]struct{}{}
		for _, t := range st.Graph(uri).Triples() {
			m[uri][t] = struct{}{}
		}
	}
	return m
}

// shapeOrder maps a bound/unbound mask (bit 0 = S, 1 = P, 2 = O bound) to
// the component order the store promises for that shape.
var shapeOrder = [8][3]int{
	0b000: {0, 1, 2}, 0b001: {0, 1, 2}, 0b011: {0, 1, 2}, 0b111: {0, 1, 2}, // SPO
	0b010: {1, 2, 0}, 0b110: {1, 2, 0}, // POS
	0b100: {2, 0, 1}, 0b101: {2, 0, 1}, // OSP
}

func comps(t store.IDTriple) [3]store.ID { return [3]store.ID{t.S, t.P, t.O} }

func mask(t store.IDTriple, shape int) store.IDTriple {
	var p store.IDTriple
	if shape&1 != 0 {
		p.S = t.S
	}
	if shape&2 != 0 {
		p.P = t.P
	}
	if shape&4 != 0 {
		p.O = t.O
	}
	return p
}

func matches(pat, t store.IDTriple) bool {
	return (pat.S == 0 || pat.S == t.S) && (pat.P == 0 || pat.P == t.P) && (pat.O == 0 || pat.O == t.O)
}

func collect(scan func(func(store.IDTriple) bool)) []store.IDTriple {
	out := []store.IDTriple{}
	scan(func(t store.IDTriple) bool { out = append(out, t); return true })
	return out
}

// sortedSet returns the distinct ids ascending.
func sortedSet(ids []store.ID) []store.ID {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return slices.Compact(ids)
}

func checkRun(tb testing.TB, what string, got store.Run, want []store.ID) {
	tb.Helper()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			tb.Fatalf("%s: run not strictly ascending: %v", what, got)
		}
	}
	if !slices.Equal([]store.ID(got), sortedSet(want)) {
		tb.Fatalf("%s = %.400v, want %.400v", what, got, sortedSet(want))
	}
}

// check asserts every invariant the store promises, for every graph of m.
// probes lists triples to derive patterns from, beyond the live ones: ones
// that were deleted, or never present.
func check(tb testing.TB, st *store.Store, m model, probes []store.IDTriple) {
	tb.Helper()
	total := 0
	stats := st.Stats()
	st.RLock()
	defer st.RUnlock()
	for uri, set := range m {
		g := st.Graph(uri)
		if g == nil {
			if len(set) != 0 {
				tb.Fatalf("graph %s missing with %d model triples", uri, len(set))
			}
			continue
		}
		total += len(set)
		lay := g.Layout()
		if g.Len() != len(set) || lay.BaseTriples-lay.Tombstones+lay.DeltaTriples != len(set) || lay.Tombstones != g.Tombstones() || lay.Tombstones < 0 || lay.Tombstones > lay.BaseTriples+lay.DeltaTriples {
			tb.Fatalf("graph %s: Len %d, layout %+v, Tombstones %d, model %d", uri, g.Len(), lay, g.Tombstones(), len(set))
		}

		live := make([]store.IDTriple, 0, len(set))
		for t := range set {
			live = append(live, t)
		}
		pats := map[store.IDTriple]int{} // pattern -> shape
		for _, src := range [][]store.IDTriple{live, probes} {
			for _, t := range src {
				for shape := 0; shape < 8; shape++ {
					pats[mask(t, shape)] = shape
				}
			}
		}
		for pat, shape := range pats {
			ord := shapeOrder[shape]
			var want []store.IDTriple
			for _, t := range live {
				if matches(pat, t) {
					want = append(want, t)
				}
			}
			slices.SortFunc(want, func(x, y store.IDTriple) int {
				cx, cy := comps(x), comps(y)
				for _, c := range ord {
					if cx[c] != cy[c] {
						return int(cx[c]) - int(cy[c])
					}
				}
				return 0
			})
			got := collect(func(y func(store.IDTriple) bool) { g.Match(pat, y) })
			if !slices.Equal(got, want) {
				tb.Fatalf("graph %s: Match(%v) = %v, want %v", uri, pat, got, want)
			}
			if c, n := g.Cardinality(pat), g.Count(pat); c != len(want) || n != len(want) {
				tb.Fatalf("graph %s: Cardinality(%v) = %d, Count = %d, want %d", uri, pat, c, n, len(want))
			}
			any := collect(func(y func(store.IDTriple) bool) { st.MatchAny([]string{uri}, pat, y) })
			if !slices.Equal(any, got) {
				tb.Fatalf("graph %s: MatchAny(%v) = %v, Match = %v", uri, pat, any, got)
			}
			for _, morsel := range []int{0, 1, 3} {
				var cat []store.IDTriple
				for _, part := range st.MatchParts([]string{uri}, pat, morsel) {
					cat = append(cat, collect(part)...)
				}
				if !slices.Equal(cat, got) {
					tb.Fatalf("graph %s: MatchParts(%v, %d) = %v, MatchAny = %v", uri, pat, morsel, cat, got)
				}
			}
		}

		// Runs and catalog statistics, from the model alone.
		var subjects, objects, nodes []store.ID
		bySP, byPO := map[[2]store.ID][]store.ID{}, map[[2]store.ID][]store.ID{}
		subjOf, objOf := map[store.ID][]store.ID{}, map[store.ID][]store.ID{}
		triplesOf := map[store.ID]int{}
		for _, t := range live {
			subjects, objects = append(subjects, t.S), append(objects, t.O)
			nodes = append(nodes, t.S, t.O)
			bySP[[2]store.ID{t.S, t.P}] = append(bySP[[2]store.ID{t.S, t.P}], t.O)
			byPO[[2]store.ID{t.P, t.O}] = append(byPO[[2]store.ID{t.P, t.O}], t.S)
			subjOf[t.P], objOf[t.P] = append(subjOf[t.P], t.S), append(objOf[t.P], t.O)
			triplesOf[t.P]++
		}
		checkRun(tb, "Nodes", g.Nodes(), nodes)
		for _, src := range [][]store.IDTriple{live, probes} {
			for _, t := range src {
				checkRun(tb, fmt.Sprintf("SubjectsOfPred(%d)", t.P), g.SubjectsOfPred(t.P), subjOf[t.P])
				checkRun(tb, fmt.Sprintf("ObjectsOfPred(%d)", t.P), g.ObjectsOfPred(t.P), objOf[t.P])
				checkRun(tb, fmt.Sprintf("ObjectsSP(%d,%d)", t.S, t.P), g.ObjectsSP(t.S, t.P), bySP[[2]store.ID{t.S, t.P}])
				checkRun(tb, fmt.Sprintf("SubjectsPO(%d,%d)", t.P, t.O), g.SubjectsPO(t.P, t.O), byPO[[2]store.ID{t.P, t.O}])
			}
		}
		want := &store.GraphStats{
			Triples:          len(live),
			DistinctSubjects: len(sortedSet(subjects)),
			DistinctObjects:  len(sortedSet(objects)),
			Predicates:       map[store.ID]store.PredicateStats{},
		}
		for p, n := range triplesOf {
			want.Predicates[p] = store.PredicateStats{
				Triples: n, DistinctSubjects: len(sortedSet(subjOf[p])), DistinctObjects: len(sortedSet(objOf[p])),
			}
		}
		if got := stats.Graphs[uri]; !reflect.DeepEqual(got, want) {
			tb.Fatalf("graph %s: Stats = %+v, want %+v", uri, got, want)
		}

		// Degrees and uncapped 2-hop counts of every node, in this graph alone.
		outN, inN := map[store.ID][]store.ID{}, map[store.ID][]store.ID{}
		for _, t := range live {
			outN[t.S], inN[t.O] = append(outN[t.S], t.O), append(inN[t.O], t.S)
		}
		twoHop := func(adj map[store.ID][]store.ID, v store.ID) int {
			seen := map[store.ID]struct{}{}
			for _, w := range adj[v] {
				seen[w] = struct{}{}
				for _, x := range adj[w] {
					seen[x] = struct{}{}
				}
			}
			delete(seen, v)
			return len(seen)
		}
		for _, v := range sortedSet(nodes) {
			want := store.NodeFeatures{Node: v, OutDegree: len(outN[v]), InDegree: len(inN[v]), Out2Hop: twoHop(outN, v), In2Hop: twoHop(inN, v)}
			if got := st.NodeFeatures([]string{uri}, v, 0); got != want {
				tb.Fatalf("graph %s: NodeFeatures(%d) = %+v, want %+v", uri, v, got, want)
			}
		}
	}
	if st.Len() != total || stats.TotalTriples != total {
		tb.Fatalf("Len = %d, Stats.TotalTriples = %d, model %d", st.Len(), stats.TotalTriples, total)
	}
}

// checkDict asserts that the store's dictionary holds exactly terms, the
// term of id i+1 at index i: every id decodes to its term, and looking the
// term up returns the id.
func checkDict(tb testing.TB, st *store.Store, terms []rdf.Term) {
	tb.Helper()
	st.RLock()
	defer st.RUnlock()
	d := st.Dict()
	if d.Len() != len(terms) {
		tb.Fatalf("dictionary holds %d terms, want %d", d.Len(), len(terms))
	}
	for i, t := range terms {
		id := store.ID(i + 1)
		if got := d.Decode(id); got != t {
			tb.Fatalf("Decode(%d) = %v, want %v", id, got, t)
		}
		if got, ok := d.Lookup(t); !ok || got != id {
			tb.Fatalf("Lookup(%v) = %d, %v, want %d", t, got, ok, id)
		}
	}
}

// termsOf reads a store's dictionary back in id order.
func termsOf(st *store.Store) []rdf.Term {
	terms := make([]rdf.Term, st.Dict().Len())
	for i := range terms {
		terms[i] = st.Dict().Decode(store.ID(i + 1))
	}
	return terms
}

// runStoreOps interprets data as a program over a small universe of terms,
// so that inserts collide, deletes hit, and re-inserts revive. The first
// byte sizes the universe; each step is an opcode byte and its operands.
func runStoreOps(tb testing.TB, data []byte) {
	tb.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	graphs := []string{gA, gB}
	nodes, preds := 3+next()%14, 3
	st := store.New()
	// Nodes 4, 9 and 14 are literals of one lexical form that differ only
	// in datatype or language: three terms the dictionary must keep apart.
	term := func(kind string, i int) rdf.Term {
		if kind == "n" && i%5 == 4 {
			return [3]rdf.Term{rdf.NewLiteral("4"), rdf.NewLangLiteral("4", "en"), rdf.NewTypedLiteral("4", rdf.XSDInteger)}[i/5%3]
		}
		return rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i))
	}
	var interned []rdf.Term // the term of id i+1 at index i
	encode := func(t rdf.Term) store.ID {
		id := st.Dict().Encode(t)
		if int(id) == len(interned)+1 {
			interned = append(interned, t)
		}
		return id
	}
	triple := func() (string, rdf.Triple, store.IDTriple) {
		a, b := next(), next()
		s := term("n", a%nodes)
		if s.Kind == rdf.LiteralKind { // subjects are never literals
			s = term("n", (a+1)%nodes)
		}
		tr := rdf.Triple{S: s, P: term("p", (a/16)%preds), O: term("n", b%nodes)}
		return graphs[(b/32)%2], tr, store.IDTriple{S: encode(tr.S), P: encode(tr.P), O: encode(tr.O)}
	}
	m := model{gA: {}, gB: {}}
	var probes []store.IDTriple
	seen := map[store.IDTriple]struct{}{}
	note := func(t store.IDTriple) {
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			probes = append(probes, t)
		}
	}
	apply := func(ops []store.UpdateOp, ids []store.IDTriple) {
		before := st.Version()
		ins, del := 0, 0
		for i, op := range ops {
			_, had := m[op.Graph][ids[i]]
			if op.Insert && !had {
				m[op.Graph][ids[i]] = struct{}{}
				ins++
			} else if !op.Insert && had {
				delete(m[op.Graph], ids[i])
				del++
			}
		}
		res, err := st.ApplyBatch(ops)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Inserted != ins || res.Deleted != del || st.Version() != before+uint64(ins+del) {
			tb.Fatalf("ApplyBatch = %+v (version %d -> %d), model inserted %d deleted %d", res, before, st.Version(), ins, del)
		}
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1: // one insert or delete
			uri, tr, id := triple()
			note(id)
			apply([]store.UpdateOp{{Insert: op%8 == 0, Graph: uri, Triple: tr}}, []store.IDTriple{id})
		case 2: // a mixed batch
			var ops []store.UpdateOp
			var ids []store.IDTriple
			for n := 1 + next()%8; n > 0; n-- {
				uri, tr, id := triple()
				note(id)
				ops, ids = append(ops, store.UpdateOp{Insert: next()%3 != 0, Graph: uri, Triple: tr}), append(ids, id)
			}
			apply(ops, ids)
		case 3: // Add
			uri, tr, id := triple()
			note(id)
			if err := st.Add(uri, tr); err != nil {
				tb.Fatal(err)
			}
			m[uri][id] = struct{}{}
		case 4: // a bulk load into one graph, merged at its end
			uri := graphs[next()%2]
			var trs []rdf.Triple
			for n := 1 + next()%32; n > 0; n-- {
				_, tr, id := triple()
				note(id)
				trs = append(trs, tr)
				m[uri][id] = struct{}{}
			}
			if err := st.AddAll(uri, trs); err != nil {
				tb.Fatal(err)
			}
		case 5: // compaction never moves the version
			before := st.Version()
			st.CompactGraph(graphs[next()%2])
			if st.Version() != before {
				tb.Fatalf("CompactGraph moved the version %d -> %d", before, st.Version())
			}
		case 6: // reopen from a snapshot
			var buf bytes.Buffer
			if err := Write(&buf, st); err != nil {
				tb.Fatal(err)
			}
			reopened, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				tb.Fatalf("reading back a written snapshot: %v", err)
			}
			var again bytes.Buffer
			if err := Write(&again, reopened); err != nil {
				tb.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				tb.Fatal("snapshot of a reopened store differs from the snapshot it was read from")
			}
			st = reopened
		case 7: // a batch of deletes from one graph
			uri := graphs[next()%2]
			var ops []store.UpdateOp
			var ids []store.IDTriple
			for n := 1 + next()%8; n > 0; n-- {
				_, tr, id := triple()
				note(id)
				ops, ids = append(ops, store.UpdateOp{Graph: uri, Triple: tr}), append(ids, id)
			}
			apply(ops, ids)
		}
		check(tb, st, m, probes)
		checkDict(tb, st, interned)
	}
}

func TestStoreAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 600)
		rng.Read(prog)
		runStoreOps(t, prog)
	}
}

// TestStoreModelThresholds drives the two automatic merges — enough pending
// inserts, and enough tombstones to cover a quarter of the base — and
// checks content and layout around them. (The full checker is quadratic in
// the graph; the random programs cover dirty graphs with it.)
func TestStoreModelThresholds(t *testing.T) {
	st := store.New()
	m := model{gA: {}}
	tr := func(i int) rdf.Triple {
		return rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i%997)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewInteger(int64(i))}
	}
	id := func(t rdf.Triple) store.IDTriple {
		d := st.Dict()
		return store.IDTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
	}
	same := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(modelOf(st), m) {
			t.Fatalf("%s: store content differs from the model", when)
		}
	}
	for i := 0; st.Graph(gA) == nil || st.Graph(gA).Layout().BaseTriples == 0; i++ {
		if i > 1<<16 {
			t.Fatal("pending inserts never merged")
		}
		if err := st.Add(gA, tr(i)); err != nil {
			t.Fatal(err)
		}
		m[gA][id(tr(i))] = struct{}{}
	}
	g := st.Graph(gA)
	if lay := g.Layout(); lay.DeltaTriples != 0 || lay.Tombstones != 0 || lay.BaseTriples != len(m[gA]) {
		t.Fatalf("layout after the insert-driven merge: %+v, model %d", lay, len(m[gA]))
	}
	same("after the insert-driven merge")

	n, version := st.Len(), st.Version()
	deletes := 0
	for ; deletes == 0 || g.Tombstones() > 0; deletes++ {
		if deletes > n {
			t.Fatal("tombstones never merged")
		}
		if g.Tombstones() != deletes {
			t.Fatalf("Tombstones = %d after %d deletes of base triples", g.Tombstones(), deletes)
		}
		if _, err := st.ApplyBatch([]store.UpdateOp{{Graph: gA, Triple: tr(deletes)}}); err != nil {
			t.Fatal(err)
		}
		delete(m[gA], id(tr(deletes)))
	}
	if lay := g.Layout(); deletes != n/4 || lay.BaseTriples != n-deletes {
		t.Fatalf("merged after %d deletes of %d, layout %+v", deletes, n, lay)
	}
	if st.Version() != version+uint64(deletes) {
		t.Fatalf("version %d -> %d over %d deletes: compaction must not move it", version, st.Version(), deletes)
	}
	same("after the tombstone-driven merge")
}

// FuzzStoreOps runs its input as a store program (see runStoreOps). The
// seed corpus is under testdata/fuzz/FuzzStoreOps: a revive, a bulk load
// over a dirty graph, a reopen between mutations, a tombstone-driven merge,
// and three random programs.
func FuzzStoreOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("long programs only repeat short ones")
		}
		runStoreOps(t, data)
	})
}

// withCRC returns data with its last four bytes replaced by the checksum of
// the rest, so that mutated bodies get past the checksum and reach the
// parser.
func withCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// FuzzSnapshotRead feeds arbitrary bytes to the reader, as they are and
// with the checksum repaired. The reader must return an error or a store
// that passes every invariant of check, must not panic, and must not
// allocate out of proportion to its input: a count read from the file may
// size an allocation only once the bytes it counts are known to be there.
// The bound has a quadratic term because a graph's first-level offset
// tables are indexed by term id: terms × graphs words is what a well-formed
// file of many small graphs legitimately costs. The seed corpus is under
// testdata/fuzz/FuzzSnapshotRead: well-formed files, a truncated and a
// damaged one, an old version, and counts far beyond the bytes present.
func FuzzSnapshotRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := Read(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			n := uint64(len(in))
			if got, bound := after.TotalAlloc-before.TotalAlloc, 1<<20+64*n+n*n; got > bound {
				t.Fatalf("Read allocated %d bytes for a %d-byte input (bound %d)", got, n, bound)
			}
			if err != nil {
				continue
			}
			check(t, st, modelOf(st), nil)
			terms := termsOf(st)
			checkDict(t, st, terms)
			var buf bytes.Buffer
			if err := Write(&buf, st); err != nil {
				t.Fatal(err)
			}
			again, err := Read(&buf)
			if err != nil {
				t.Fatalf("reading back the snapshot of an accepted store: %v", err)
			}
			if !reflect.DeepEqual(modelOf(again), modelOf(st)) {
				t.Fatal("an accepted store does not survive a round trip")
			}
			checkDict(t, again, terms)
		}
	})
}
