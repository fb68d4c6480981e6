package store

import (
	"fmt"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
)

// runTerms is the order runGraph interns its terms in, which fixes their ids.
var runTerms = []string{"o10", "o20", "o30", "s1", "s2", "s3", "p1", "p2"}

func runGraph(t *testing.T) *Graph {
	t.Helper()
	s := New()
	for _, v := range runTerms {
		s.Dict().Encode(rdf.NewIRI("http://ex/" + v))
	}
	// Arrival order deliberately differs from id order within every group:
	// objects 30, 10, 20 under one (s,p); subjects s2, s1, s3 for p1.
	triples := []rdf.Triple{
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o30")},
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o10")},
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o20")},
		{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o10")},
		{S: rdf.NewIRI("http://ex/s3"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o20")},
		{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p2"), O: rdf.NewIRI("http://ex/o10")},
	}
	if err := s.AddAll("http://ex/g", triples); err != nil {
		t.Fatal(err)
	}
	return s.Graph("http://ex/g")
}

func assertRun(t *testing.T, r Run) {
	t.Helper()
	for i := 1; i < len(r); i++ {
		if r[i-1] >= r[i] {
			t.Fatalf("run not strictly ascending at %d: %v", i, r)
		}
	}
}

func TestRunsSortedAndDuplicateFree(t *testing.T) {
	g := runGraph(t)
	id := func(v string) ID { return ID(slices.Index(runTerms, v) + 1) }
	o10, o20, o30 := id("o10"), id("o20"), id("o30")
	s1, s2, s3, p1, p2 := id("s1"), id("s2"), id("s3"), id("p1"), id("p2")
	for _, c := range []struct {
		what string
		got  Run
		want []ID
	}{
		{"SubjectsOfPred(p1)", g.SubjectsOfPred(p1), []ID{s1, s2, s3}},
		{"SubjectsOfPred(p2)", g.SubjectsOfPred(p2), []ID{s1}},
		{"ObjectsOfPred(p1)", g.ObjectsOfPred(p1), []ID{o10, o20, o30}},
		// Inserted as o30, o10, o20: the run is in id order whatever the
		// arrival order was.
		{"ObjectsSP(s2, p1)", g.ObjectsSP(s2, p1), []ID{o10, o20, o30}},
		{"SubjectsPO(p1, o10)", g.SubjectsPO(p1, o10), []ID{s1, s2}},
		{"SubjectsPO(p1, o20)", g.SubjectsPO(p1, o20), []ID{s2, s3}},
		{"Nodes", g.Nodes(), []ID{o10, o20, o30, s1, s2, s3}},
	} {
		assertRun(t, c.got)
		if !slices.Equal([]ID(c.got), c.want) {
			t.Fatalf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}

	// A settled range is served from the base arrays: the same memory on
	// every call, no copy.
	subs, again := g.SubjectsOfPred(p1), g.SubjectsOfPred(p1)
	if &again[0] != &subs[0] {
		t.Fatal("SubjectsOfPred copied a settled range")
	}
	if objs, again := g.ObjectsSP(s2, p1), g.ObjectsSP(s2, p1); &again[0] != &objs[0] {
		t.Fatal("ObjectsSP copied a settled range")
	}
	// A pending insert under (s2, p1) makes that one range a merged copy and
	// leaves its neighbours zero-copy.
	if !g.add(IDTriple{s2, p1, s3}) {
		t.Fatal("add of a new triple reported no change")
	}
	if got := g.ObjectsSP(s2, p1); !slices.Equal([]ID(got), []ID{o10, o20, o30, s3}) {
		t.Fatalf("ObjectsSP(s2, p1) with a pending insert = %v", got)
	}
	if a, b := g.ObjectsSP(s1, p1), g.ObjectsSP(s1, p1); &a[0] != &b[0] {
		t.Fatal("a pending insert elsewhere made ObjectsSP(s1, p1) copy")
	}
}

func TestRunsEmpty(t *testing.T) {
	g := runGraph(t)
	if r := g.SubjectsOfPred(9999); len(r) != 0 {
		t.Fatalf("SubjectsOfPred(absent) = %v, want empty", r)
	}
	if r := g.ObjectsSP(9999, 9999); len(r) != 0 {
		t.Fatalf("ObjectsSP(absent) = %v, want empty", r)
	}
	it := NewRunIterator(nil)
	if !it.Done() {
		t.Fatal("iterator over empty run not Done")
	}
	it.Seek(5) // must not panic past the end
	if !it.Done() {
		t.Fatal("empty iterator became un-Done after Seek")
	}
}

func TestRunsSeeEveryAdd(t *testing.T) {
	s := New()
	add := func(subj string) {
		if err := s.Add("http://ex/g", rdf.Triple{
			S: rdf.NewIRI("http://ex/" + subj),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewIRI("http://ex/o"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("a")
	g := s.Graph("http://ex/g")
	p, _ := s.Dict().Lookup(rdf.NewIRI("http://ex/p"))
	if n := len(g.SubjectsOfPred(p)); n != 1 {
		t.Fatalf("initial run has %d subjects, want 1", n)
	}
	add("b")
	if n := len(g.SubjectsOfPred(p)); n != 2 {
		t.Fatalf("run after insert has %d subjects, want 2", n)
	}
}

func TestRunIteratorSeek(t *testing.T) {
	run := Run{2, 5, 5 + 2, 11, 30, 31, 90}
	// (7 written as 5+2 to dodge any accidental duplicate-literal edits.)
	it := NewRunIterator(run)
	if it.Done() || it.At() != 2 {
		t.Fatalf("fresh iterator at %d, want 2", it.At())
	}

	it.Seek(6)
	if it.At() != 7 {
		t.Fatalf("Seek(6) landed on %d, want 7 (first element >= 6)", it.At())
	}
	it.Seek(7) // exact hit: stays put
	if it.At() != 7 {
		t.Fatalf("Seek(7) landed on %d, want 7", it.At())
	}
	it.Seek(3) // backwards: no rewind
	if it.At() != 7 {
		t.Fatalf("Seek(3) rewound to %d, want 7", it.At())
	}
	it.Next()
	if it.At() != 11 {
		t.Fatalf("Next landed on %d, want 11", it.At())
	}
	it.Seek(31)
	if it.At() != 31 {
		t.Fatalf("Seek(31) landed on %d, want 31", it.At())
	}
	it.Seek(91) // past the end
	if !it.Done() {
		t.Fatalf("Seek past the end left iterator at %d, want Done", it.At())
	}
	it.Seek(1) // Done is terminal
	if !it.Done() {
		t.Fatal("Seek on a Done iterator resurrected it")
	}
}

func TestRunIteratorSeekExhaustive(t *testing.T) {
	// Every (start, target) pair over a fixed run must land on the first
	// element >= target at or after start — the leapfrog contract.
	run := Run{1, 4, 9, 16, 25, 36, 49, 64, 81, 100}
	for start := 0; start < len(run); start++ {
		for target := ID(0); target <= 101; target++ {
			it := RunIterator{run: run, pos: start}
			it.Seek(target)
			want := -1
			for i := start; i < len(run); i++ {
				if run[i] >= target {
					want = i
					break
				}
			}
			if want == -1 {
				if !it.Done() {
					t.Fatalf("start=%d Seek(%d): at %d, want Done", start, target, it.At())
				}
				continue
			}
			if it.Done() || it.pos != want {
				t.Fatalf("start=%d Seek(%d): pos=%d done=%v, want pos=%d",
					start, target, it.pos, it.Done(), want)
			}
		}
	}
}

func BenchmarkRunIteratorSeek(b *testing.B) {
	run := make(Run, 1<<16)
	for i := range run {
		run[i] = ID(i*3 + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewRunIterator(run)
		for id := ID(1); !it.Done(); id += 97 {
			it.Seek(id)
			if !it.Done() {
				it.Next()
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt for future debugging of table-driven cases
