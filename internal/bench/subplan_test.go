package bench

import (
	"bytes"
	"strings"
	"testing"

	"rdfframes"
	"rdfframes/internal/sparql"
)

// fullOuterJoinChains builds frames the 18 tasks do not: full outer joins
// of frames that branch from one frame, in both orders, chained, and under
// an inner join — each compiles to the same operand text several times.
func fullOuterJoinChains(env *Env) map[string]*rdfframes.RDFFrame {
	starring := env.DBpedia.FeatureDomainRange("dbpp:starring", "movie", "actor")
	born := starring.Expand("actor", rdfframes.Out("dbpp:birthPlace", "country"))
	counts := starring.GroupBy("actor").CountDistinct("movie", "movie_count")
	titled := starring.Expand("movie", rdfframes.Out("rdfs:label", "title"), rdfframes.Out("dbpo:genre", "genre").Opt())
	foj := rdfframes.FullOuterJoin
	return map[string]*rdfframes.RDFFrame{
		"born foj counts":                born.Join(counts, "actor", foj),
		"counts foj born":                counts.Join(born, "actor", foj),
		"(born foj counts) foj titled":   born.Join(counts, "actor", foj).Join(titled, "actor", foj),
		"titled foj (counts foj born)":   titled.Join(counts.Join(born, "actor", foj), "actor", foj),
		"(born foj counts) join titled":  born.Join(counts, "actor", foj).Join(titled, "actor", rdfframes.InnerJoin),
		"(titled foj born) foj starring": titled.Join(born, "movie", foj).Join(starring, "movie", foj),
	}
}

// uniquify makes one copy of a repeated operand structurally unique without
// changing what it returns: a FILTER(true) at the head of the first nested
// SELECT's group (of the query's own when it nests none).
func uniquify(query string) string {
	at := strings.Index(query, "SELECT") + len("SELECT")
	if nested := strings.Index(query[at:], "SELECT"); nested >= 0 {
		at += nested
	}
	at += strings.Index(query[at:], "{") + 1
	return query[:at] + " FILTER(true) " + query[at:]
}

// TestSubplanReuseByteIdentical: evaluating repeated subplans once changes
// no byte. Every task text and every generated chain serializes identically
// under the planner (sharing on), under DisableReorder (the un-shared,
// textual-order reference path), and with one copy made unique, which regroups the
// classes: that copy is evaluated on its own, and what it nests is now
// reached and may pair up with the rest of the query differently.
func TestSubplanReuseByteIdentical(t *testing.T) {
	env := sharedEnv(t)
	shared := sparql.NewEngine(env.Store)
	unshared := sparql.NewEngine(env.Store)
	unshared.DisableReorder = true

	queries := map[string]string{}
	for _, task := range append(CaseStudies(), Synthetic()...) {
		q, err := task.Frame(env).ToSPARQL()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		queries[task.ID] = q
	}
	for name, frame := range fullOuterJoinChains(env) {
		q, err := frame.ToSPARQL()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries[name] = q
	}

	reusing := 0
	for name, query := range queries {
		want, err := evalJSON(unshared, query)
		if err != nil {
			t.Fatalf("%s: unshared: %v", name, err)
		}
		got, err := evalJSON(shared, query)
		if err != nil {
			t.Fatalf("%s: shared: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharing subplans changes the result (%d vs %d bytes)", name, len(got), len(want))
		}
		unique := uniquify(query)
		if got, err = evalJSON(shared, unique); err != nil {
			t.Fatalf("%s: with a unique copy: %v\n%s", name, err, unique)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: making one copy unique changes the result (%d vs %d bytes)", name, len(got), len(want))
		}

		whole, err := shared.Explain(query)
		if err != nil {
			t.Fatal(err)
		}
		if whole.SubplanReuses > 0 {
			reusing++
		}
		if strings.Contains(name, "foj") && whole.SubplanReuses == 0 {
			t.Errorf("%s: a full outer join repeats its operands, yet nothing was reused", name)
		}
	}
	if cs1, err := shared.Explain(queries["cs1"]); err != nil || cs1.SubplanReuses != 5 {
		t.Errorf("cs1: %d reuses (%v), want 5: two subqueries, the six-pattern segment, two OPTIONAL genre segments",
			cs1.SubplanReuses, err)
	}
	if reusing < 7 {
		t.Errorf("only %d of %d queries reuse a subplan", reusing, len(queries))
	}
	t.Logf("%d of %d queries reuse subplans", reusing, len(queries))
}
