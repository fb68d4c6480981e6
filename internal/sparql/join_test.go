package sparql

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// The null-aware hash join against its definition: SPARQL joins two
// solution bags by keeping every pair of rows whose shared variables do not
// disagree where both are bound. referenceJoin is that sentence as a nested
// loop; the tests below hold evaluator.join to it as bags, for batches in
// which any shared cell may be unbound on either side.

// referenceJoin is the nested-loop join: every pair, compatibleRows over all
// shared columns.
func referenceJoin(l, r *idRows, leftOuter bool) *idRows {
	js := makeJoinShape(l, r)
	out := newIDRows(js.outVars)
	buf := make([]store.ID, len(js.outVars))
	for _, lrow := range listRows(l) {
		matched := false
		for _, rrow := range listRows(r) {
			if compatibleRows(lrow, rrow, js.shared) {
				js.emit(buf, lrow, rrow)
				out.appendRow(buf)
				matched = true
			}
		}
		if !matched && leftOuter {
			clear(buf)
			copy(buf, lrow)
			out.appendRow(buf)
		}
	}
	return out
}

// listRows lists a batch's rows, read across its segments.
func listRows(r *idRows) [][]store.ID {
	rows, cur := make([][]store.ID, r.n), r.cursor(0)
	for i := range rows {
		rows[i] = cur.next()
	}
	return rows
}

// bagOf renders a batch as its sorted rows.
func bagOf(r *idRows) []string {
	rows := make([]string, r.n)
	for i, row := range listRows(r) {
		rows[i] = fmt.Sprint(row)
	}
	slices.Sort(rows)
	return rows
}

// splitRows cuts a batch's rows into segments whose sizes size draws in
// turn: n > 0 rows (the rest, when fewer are left), or for 0 an empty
// segment and then one row. The cursor, the in-place mutators and the
// random-access readers must all see the same rows whatever the cut.
func splitRows(r *idRows, size func() int) {
	rest, w := slices.Concat(r.segs...), r.width()
	var segs [][]store.ID
	for w > 0 && len(rest) > 0 {
		k := size()
		if k == 0 {
			segs, k = append(segs, rest[:0:0]), 1
		}
		k = min(k*w, len(rest))
		segs, rest = append(segs, rest[:k:k]), rest[k:]
	}
	r.segs = segs
}

// checkJoin joins l and r at the given pool size and compares with the
// reference.
func checkJoin(t *testing.T, l, r *idRows, leftOuter bool, workers int) {
	t.Helper()
	want := referenceJoin(l, r, leftOuter)
	if leftOuter && r.n == 0 {
		want = l
	}
	ev := &evaluator{workers: workers}
	got, err := ev.join(l, r, leftOuter)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.vars, want.vars) {
		t.Fatalf("columns %v, want %v", got.vars, want.vars)
	}
	cells := 0
	for _, s := range got.segs {
		if cells += len(s); len(got.vars) > 0 && len(s)%len(got.vars) != 0 {
			t.Fatalf("a segment of %d cells holds rows of %d columns", len(s), len(got.vars))
		}
	}
	if got.order != nil && len(got.order) != got.n || got.order == nil && got.n*len(got.vars) != cells {
		t.Fatalf("%d rows of %d columns in %d cells under %d order entries", got.n, len(got.vars), cells, len(got.order))
	}
	if g, w := bagOf(got), bagOf(want); !slices.Equal(g, w) {
		t.Fatalf("leftOuter=%v workers=%d: %d rows, want %d\nleft  %v %v\nright %v %v\ngot  %v\nwant %v",
			leftOuter, workers, len(g), len(w), l.vars, bagOf(l), r.vars, bagOf(r), g, w)
	}
	if l.n > 0 && r.n > 0 && ev.stats.joinRows != int64(got.n) {
		t.Fatalf("counted %d emitted rows, emitted %d", ev.stats.joinRows, got.n)
	}
}

// joinCase decodes a byte string into a join: a header (left outer or
// inner, how many shared, left-only and right-only columns, row counts,
// whether the left side is repeated past the parallel threshold) and then
// one byte per cell, 0 unbound, otherwise one of three ids — a domain small
// enough that rows agree, disagree and go unbound in every combination.
// Both batches are then cut into segments of 0 to 4 rows, the sizes read
// from the bytes in a cycle, the way parallel operators hand over their
// output (see splitRows), and the header may give one side an order over
// some of its rows, chosen by the bytes too (see shuffleRows).
func joinCase(data []byte) (l, r *idRows, leftOuter bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	shared, lOnly, rOnly := at(0)%8, at(0)/8%3, at(0)/24%3
	leftOuter = at(1)&1 != 0
	big := at(1)&2 != 0
	ln, rn := at(2)%24, at(3)%24
	var lvars, rvars []string
	for k := 0; k < shared; k++ {
		lvars = append(lvars, fmt.Sprint("s", k))
	}
	rvars = append(rvars, lvars...)
	slices.Reverse(rvars) // shared columns sit at different positions on the two sides
	for k := 0; k < lOnly; k++ {
		lvars = append(lvars, fmt.Sprint("l", k))
	}
	for k := 0; k < rOnly; k++ {
		rvars = append(rvars, fmt.Sprint("r", k))
	}
	next := 4
	fill := func(vars []string, n int) *idRows {
		b := newIDRows(vars)
		b.n = n
		cells := make([]store.ID, n*len(vars))
		for i := range cells {
			cells[i] = store.ID(at(next) % 4)
			next++
		}
		b.segs = [][]store.ID{cells}
		return b
	}
	l, r = fill(lvars, ln), fill(rvars, rn)
	if big && l.n > 0 {
		rows := l.segs[0]
		for l.n < minParallelRows+morselRows/2 {
			l.segs[0] = append(l.segs[0], rows...)
			l.n += ln
		}
	}
	size := func() int {
		next++
		if len(data) == 0 {
			return 1
		}
		return int(data[next%len(data)] % 5)
	}
	splitRows(l, size)
	splitRows(r, size)
	switch at(1) >> 2 % 4 {
	case 1:
		shuffleRows(l, size)
	case 2:
		shuffleRows(r, size)
	}
	return l, r, leftOuter
}

// shuffleRows gives a batch an order over its rows, the way a sort or a
// filter over a shared batch leaves one: a shuffle whose swaps pick drives,
// after which every row for which pick draws 0 drops out.
func shuffleRows(r *idRows, pick func() int) {
	if r.width() == 0 {
		return // rows without cells have no number
	}
	r.number()
	for i := len(r.order) - 1; i > 0; i-- {
		j := pick() * 7919 % (i + 1)
		r.order[i], r.order[j] = r.order[j], r.order[i]
	}
	r.order = slices.DeleteFunc(r.order, func(uint64) bool { return pick() == 0 })
	r.n = len(r.order)
}

// FuzzJoin holds the join to the reference on arbitrary small batches, on
// the query goroutine and on four workers. The seed corpus is under
// testdata/fuzz/FuzzJoin: no shared column, one fully bound, and masks that
// differ from row to row on both sides with two- and seven-column keys.
func FuzzJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("the header caps the batches well below this")
		}
		l, r, leftOuter := joinCase(data)
		checkJoin(t, l, r, leftOuter, 1)
		checkJoin(t, l, r, leftOuter, 4)
	})
}

// TestJoinAgainstReference is the seeded version: random cases of every
// header shape, both join kinds, 1 and 4 workers.
func TestJoinAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n < 400; n++ {
		data := make([]byte, 4+rng.Intn(400))
		rng.Read(data)
		if n%8 != 0 {
			data[1] &^= 2 // mostly small: the big cases are the slow ones
		}
		l, r, _ := joinCase(data)
		for _, leftOuter := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				checkJoin(t, l, r, leftOuter, workers)
			}
		}
	}
}

// TestJoinIndexAllocsPerGroup: building the indexes allocates per mask
// group and key, never per row or per distinct key — the same count for a
// batch four times the size, for one-, two- and seven-column keys.
func TestJoinIndexAllocsPerGroup(t *testing.T) {
	build := func(cols, rows int) float64 {
		vars := make([]string, cols)
		for k := range vars {
			vars[k] = fmt.Sprint("s", k)
		}
		l, r := newIDRows(vars), newIDRows(vars)
		for _, b := range []*idRows{l, r} {
			b.n = rows
			b.segs = [][]store.ID{make([]store.ID, rows*cols)}
			for i := range b.segs[0] {
				b.segs[0][i] = store.ID(1 + i%977)
			}
		}
		for i := 0; i < rows; i += 3 { // a second mask group on the right: last column unbound
			r.segs[0][i*cols+cols-1] = 0
		}
		return testing.AllocsPerRun(5, func() { makeJoinExec(l, r, false) })
	}
	for _, cols := range []int{1, 2, 7} {
		small, large := build(cols, 1000), build(cols, 4000)
		// A hash map of four times the entries is made of more tables; that
		// is all that may grow.
		if large > small+16 || large > 64 {
			t.Errorf("%d-column key: %v allocations for 1,000 rows, %v for 4,000", cols, small, large)
		}
	}
}

// TestJoinCandidatesFollowOutput is the cs1 shape at small scale: a BGP
// result with seven shared columns all bound, joined with a union whose
// branches bind all seven or ?actor alone. Keyed on the columns bound in
// every row (?actor), the join checks every pair of rows with the same
// actor; keyed per mask pair it checks about what it emits.
func TestJoinCandidatesFollowOutput(t *testing.T) {
	shared := []string{"actor", "movie", "actor_country", "actor_name", "movie_name", "subject", "movie_country"}
	l := newIDRows(shared)
	r := newIDRows(append(slices.Clone(shared), "movie_count"))
	const actors, movies = 40, 30
	id := store.ID(1)
	for a := 0; a < actors; a++ {
		actor := id
		id++
		for m := 0; m < movies; m++ {
			row := []store.ID{actor, id, id + 1, id + 2, id + 3, id + 4, id + 5}
			id += 6
			l.appendRow(row)
			switch {
			case a%2 == 0: // an American actor's rows, prolific or not
				r.appendRow(append(row, store.ID(a%4/2)*7))
			case m == 0: // a prolific actor who is not American: ?actor alone
				r.appendRow([]store.ID{actor, 0, 0, 0, 0, 0, 0, 7})
			}
		}
	}
	ev := &evaluator{}
	out := mustJoin(ev, l, r, false)
	if want := referenceJoin(l, r, false); !slices.Equal(bagOf(out), bagOf(want)) {
		t.Fatalf("%d rows, the reference %d", out.n, want.n)
	}
	if out.n != actors*movies {
		t.Fatalf("%d rows, want %d", out.n, actors*movies)
	}
	if c := ev.stats.joinCandidates; c > 2*int64(out.n) {
		t.Fatalf("%d candidate checks for %d rows (keyed on ?actor alone: %d)", c, out.n, actors/2*movies*movies+actors/2*movies)
	}
}

// TestCartesianJoinTimesOut: a join without shared variables has 2.5 billion
// rows to emit here. It must stop at the deadline having allocated what it
// emitted until then — 16 bytes a row, once in a chunk — and not a morsel's
// share of the full product (1.4 GB) up front. How many rows a deadline
// emits depends on the machine, so the bound follows the count; and a busy
// machine can spend a whole deadline in the two scans, before the join, so
// the deadline doubles from 50 ms until an evaluation reaches the join.
func TestCartesianJoinTimesOut(t *testing.T) {
	st := store.New()
	const n = 50_000
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		triples = append(triples,
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: rdf.NewInteger(int64(i))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/q"), O: rdf.NewInteger(int64(i))})
	}
	if err := st.AddAll(testGraph, triples); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	e.Parallelism = 1
	for deadline := 50 * time.Millisecond; deadline <= 400*time.Millisecond; deadline *= 2 {
		e.SetTimeout(deadline)
		counted := e.execStats.joinCandidates.Load()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := runQuery(e, `SELECT * WHERE { { ?a <http://ex/p> ?b } { ?c <http://ex/q> ?d } }`)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		emitted := e.execStats.joinCandidates.Load() - counted
		if emitted == 0 {
			t.Logf("the %v deadline passed before the join", deadline)
			continue
		}
		grew := int64(after.TotalAlloc - before.TotalAlloc)
		if limit := 8<<20 + 2*16*emitted; grew > limit {
			t.Fatalf("allocated %d MiB to emit %d rows before timing out, want under %d MiB", grew>>20, emitted, limit>>20)
		}
		return
	}
	t.Fatal("no deadline up to 400 ms reached the join (or the failed evaluations' join candidates were not counted)")
}
