package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// chainGen builds random but schema-valid operator chains over the
// DBpedia-like fixture, for differential testing of the query generator
// against the reference interpreter (an executable version of the paper's
// Theorem 1 over a large space of operator sequences).
type chainGen struct {
	rng      *rand.Rand
	prefixes *rdf.PrefixMap
	nextID   int
}

// colInfo tracks which entity kind each column holds so expansions stay
// schema-valid.
type colState struct {
	cols    map[string]string // column -> kind ("movie", "actor", "country", ...)
	grouped bool
	aggCol  string
}

func (g *chainGen) fresh(prefix string) string {
	g.nextID++
	return fmt.Sprintf("%s_%d", prefix, g.nextID)
}

func (g *chainGen) pred(name string) rdf.Term {
	return rdf.NewIRI(g.prefixes.MustExpand(name))
}

// expansion options per source kind: predicate, target kind, optionalOK.
var expansions = map[string][][3]string{
	"actor": {
		{"dbpp:birthPlace", "country", "no"},
		{"dbpp:academyAward", "award", "yes"},
		{"rdfs:label", "name", "no"},
	},
	"movie": {
		{"dbpp:language", "language", "no"},
		{"dbpp:country", "country", "no"},
		{"dbpp:runtime", "runtime", "no"},
		{"dbpo:genre", "genre", "yes"},
		{"dbpp:studio", "studio", "no"},
	},
}

func (g *chainGen) randomChain(depth int) (*core.Chain, *colState) {
	st := &colState{cols: map[string]string{"movie": "movie", "actor": "actor"}}
	ops := []core.Op{core.SeedOp{
		GraphURI: datagen.DBpediaURI,
		S:        sparql.Variable("movie"),
		P:        sparql.TermNode(g.pred("dbpp:starring")),
		O:        sparql.Variable("actor"),
	}}
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		op := g.randomOp(st, depth)
		if op == nil {
			continue
		}
		ops = append(ops, op...)
	}
	return &core.Chain{Ops: ops}, st
}

func (g *chainGen) randomOp(st *colState, depth int) []core.Op {
	choices := []string{"expand", "filter"}
	if !st.grouped {
		choices = append(choices, "group")
	}
	if st.grouped {
		choices = append(choices, "havingfilter")
	}
	if depth > 0 {
		choices = append(choices, "join")
	}
	switch choices[g.rng.Intn(len(choices))] {
	case "expand":
		src, kind, ok := g.pickCol(st, "actor", "movie")
		if !ok {
			return nil
		}
		opts := expansions[kind]
		e := opts[g.rng.Intn(len(opts))]
		newCol := g.fresh(e[1])
		st.cols[newCol] = e[1]
		return []core.Op{core.ExpandOp{
			GraphURI: datagen.DBpediaURI,
			Src:      src,
			Pred:     g.pred(e[0]),
			New:      newCol,
			Optional: e[2] == "yes" && g.rng.Intn(2) == 0,
		}}
	case "filter":
		col, kind, ok := g.pickCol(st, "country", "runtime", "studio", "genre")
		if !ok {
			return nil
		}
		var expr string
		switch kind {
		case "country":
			expr = "?" + col + " = <http://dbpedia.org/resource/United_States>"
		case "runtime":
			expr = fmt.Sprintf("?%s >= %d", col, 90+g.rng.Intn(40))
		case "studio":
			expr = "?" + col + " != <http://dbpedia.org/resource/Eskay_Movies>"
		case "genre":
			expr = "isIRI(?" + col + ")"
		}
		return []core.Op{core.FilterOp{Conds: []core.Condition{cond(col, expr)}}}
	case "group":
		key, agg := "actor", "movie"
		if g.rng.Intn(2) == 0 {
			key, agg = "movie", "actor"
		}
		st.grouped = true
		st.aggCol = g.fresh("n")
		st.cols = map[string]string{key: st.cols[key], st.aggCol: "count"}
		return []core.Op{
			core.GroupByOp{Cols: []string{key}},
			core.AggregationOp{Agg: core.AggSpec{Fn: "count", Src: agg, New: st.aggCol, Distinct: g.rng.Intn(2) == 0}},
		}
	case "havingfilter":
		return []core.Op{core.FilterOp{Conds: []core.Condition{
			cond(st.aggCol, fmt.Sprintf("?%s >= %d", st.aggCol, 1+g.rng.Intn(4))),
		}}}
	case "join":
		other, otherState := g.randomChain(depth - 1)
		shared := g.sharedJoinCol(st, otherState)
		if shared == "" {
			return nil
		}
		jt := []core.JoinType{core.InnerJoin, core.LeftOuterJoin, core.InnerJoin, core.FullOuterJoin}[g.rng.Intn(4)]
		for col, kind := range otherState.cols {
			st.cols[col] = kind
		}
		st.grouped = false
		return []core.Op{core.JoinOp{Other: other, Col: shared, OtherCol: shared, Type: jt, NewCol: shared}}
	}
	return nil
}

func (g *chainGen) pickCol(st *colState, kinds ...string) (string, string, bool) {
	var candidates []string
	for col, kind := range st.cols {
		for _, k := range kinds {
			if kind == k {
				candidates = append(candidates, col)
			}
		}
	}
	if len(candidates) == 0 {
		return "", "", false
	}
	// Deterministic pick order for reproducibility.
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c < best {
			best = c
		}
	}
	return best, st.cols[best], true
}

func (g *chainGen) sharedJoinCol(a, b *colState) string {
	for _, col := range []string{"actor", "movie"} {
		if _, inA := a.cols[col]; !inA {
			continue
		}
		if _, inB := b.cols[col]; inB {
			return col
		}
	}
	return ""
}

// TestRandomChainsAgree generates many random operator chains and checks
// that the optimized SPARQL translation, the naive translation, and the
// reference dataframe interpreter all return the same bag of rows.
func TestRandomChainsAgree(t *testing.T) {
	cfg := datagen.DBpediaConfig{Seed: 5, Actors: 25, Movies: 80}
	triples := datagen.DBpedia(cfg)
	st := store.New()
	if err := st.AddAll(datagen.DBpediaURI, triples); err != nil {
		t.Fatal(err)
	}
	cl := client.NewDirect(sparql.NewEngine(st))
	scan := NewScanNav(map[string][]rdf.Triple{datagen.DBpediaURI: triples})
	prefixes := rdf.CommonPrefixes()
	prefixes.Merge(rdf.NewPrefixMap(datagen.DBpediaPrefixes()))

	trials := 120
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		g := &chainGen{rng: rand.New(rand.NewSource(int64(trial))), prefixes: prefixes}
		chain, _ := g.randomChain(1)
		query, err := core.BuildSPARQL(chain)
		if err != nil {
			t.Fatalf("trial %d: BuildSPARQL: %v\nops: %+v", trial, err, chain.Ops)
		}
		res, err := cl.Select(query)
		if err != nil {
			t.Fatalf("trial %d: engine: %v\n%s", trial, err, query)
		}
		optimized := dataframe.FromRows(res.Vars, res.Rows)

		ref, err := Run(chain, scan)
		if err != nil {
			t.Fatalf("trial %d: reference interpreter: %v\n%s", trial, err, query)
		}
		aligned, err := ref.Select(optimized.Columns()...)
		if err != nil {
			t.Fatalf("trial %d: reference missing columns %v (has %v)\n%s",
				trial, optimized.Columns(), ref.Columns(), query)
		}
		if !dataframe.MultisetEqual(optimized, aligned) {
			t.Fatalf("trial %d: optimized (%d rows) != reference (%d rows)\nquery:\n%s\nopt:\n%s\nref:\n%s",
				trial, optimized.Len(), aligned.Len(), query, optimized, aligned)
		}

		naive, err := core.NaiveTranslate(chain)
		if err != nil {
			t.Fatalf("trial %d: NaiveTranslate: %v", trial, err)
		}
		naiveQuery := sparql.Render(naive)
		nres, err := cl.Select(naiveQuery)
		if err != nil {
			t.Fatalf("trial %d: naive query: %v\n%s", trial, err, naiveQuery)
		}
		naiveDF := dataframe.FromRows(nres.Vars, nres.Rows)
		nAligned, err := naiveDF.Select(optimized.Columns()...)
		if err != nil {
			t.Fatalf("trial %d: naive missing columns %v (has %v)", trial, optimized.Columns(), naiveDF.Columns())
		}
		if !dataframe.MultisetEqual(optimized, nAligned) {
			t.Fatalf("trial %d: optimized (%d rows) != naive (%d rows)\noptimized query:\n%s\nnaive query:\n%s",
				trial, optimized.Len(), nAligned.Len(), query, naiveQuery)
		}
	}
}
