package bench

import (
	"bytes"
	"context"
	"testing"

	"rdfframes/internal/sparql"
)

// evalJSON evaluates query on eng and returns its SPARQL JSON body.
func evalJSON(eng *sparql.Engine, query string) ([]byte, error) {
	resp, err := eng.Do(context.Background(), sparql.Request{Query: query, JSON: true})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// engineConfig is one engine configuration of the determinism tests.
type engineConfig struct {
	name string
	eng  *sparql.Engine
}

// newEngine returns an engine over env's store with the given number of
// morsel workers, after applying set (if any).
func newEngine(env *Env, workers int, set func(e *sparql.Engine)) *sparql.Engine {
	e := sparql.NewEngine(env.Store)
	e.Parallelism = workers
	if set != nil {
		set(e)
	}
	return e
}

func noWCOJ(e *sparql.Engine)    { e.DisableWCOJ = true }
func noReorder(e *sparql.Engine) { e.DisableReorder = true }

// assertByteIdentical evaluates each task's RDFFrames-generated query on
// ref and on every engine of others, in a subtest named after the task, and
// fails unless all of them serialize to the same SPARQL JSON.
func assertByteIdentical(t *testing.T, env *Env, tasks []*Task, ref engineConfig, others []engineConfig) {
	t.Helper()
	for _, task := range tasks {
		t.Run(task.ID, func(t *testing.T) {
			query, err := task.Frame(env).ToSPARQL()
			if err != nil {
				t.Fatal(err)
			}
			want, err := evalJSON(ref.eng, query)
			if err != nil {
				t.Fatalf("%s: %v", ref.name, err)
			}
			for _, o := range others {
				got, err := evalJSON(o.eng, query)
				if err != nil {
					t.Fatalf("%s: %v", o.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from %s (%d vs %d bytes)", o.name, ref.name, len(got), len(want))
				}
			}
		})
	}
}

// TestFigure5ParallelByteIdentical is the acceptance property for the
// morsel pool: for all 15 Figure-5 queries, evaluation on 2, 4 and 8
// workers serializes byte-identically to the serial engine.
func TestFigure5ParallelByteIdentical(t *testing.T) {
	env := sharedEnv(t)
	assertByteIdentical(t, env, Synthetic(), engineConfig{"serial", newEngine(env, 1, nil)}, []engineConfig{
		{"2 workers", newEngine(env, 2, nil)},
		{"4 workers", newEngine(env, 4, nil)},
		{"8 workers", newEngine(env, 8, nil)},
	})
}

// TestPlannerByteIdenticalFigure5 is the planner's correctness property:
// for every Figure-5 query, textual-order evaluation
// (DisableReorder), serial and on 4 workers, serializes byte-identically to
// the cost-based planner.
// Run under -race in CI, this also hammers the planner's shared-plan paths
// from the pool workers.
func TestPlannerByteIdenticalFigure5(t *testing.T) {
	env := sharedEnv(t)
	assertByteIdentical(t, env, Synthetic(), engineConfig{"optimized serial", newEngine(env, 1, nil)}, []engineConfig{
		{"DisableReorder, 1 worker", newEngine(env, 1, noReorder)},
		{"DisableReorder, 4 workers", newEngine(env, 4, noReorder)},
	})
}

// TestWCOJByteIdenticalFigure5 is the WCOJ operator's correctness property:
// for every Figure-5 query, evaluation with the worst-case-optimal join
// available, serial and on 4 workers, serializes byte-identically to the
// binary hash-join pipeline (DisableWCOJ) at 1 and 4 workers. The trie walk
// must actually run on both WCOJ engines and never on the DisableWCOJ ones,
// or the property is vacuous.
func TestWCOJByteIdenticalFigure5(t *testing.T) {
	env := sharedEnv(t)
	wcoj1, wcoj4 := newEngine(env, 1, nil), newEngine(env, 4, nil)
	bin1, bin4 := newEngine(env, 1, noWCOJ), newEngine(env, 4, noWCOJ)
	assertByteIdentical(t, env, Synthetic(), engineConfig{"binary serial", bin1}, []engineConfig{
		{"binary, 4 workers", bin4},
		{"wcoj serial", wcoj1},
		{"wcoj, 4 workers", wcoj4},
	})
	if seg, _, _, _ := wcoj1.WCOJStats(); seg == 0 {
		t.Error("no Figure-5 query executed a WCOJ segment; the property test is vacuous")
	}
	if seg, _, _, _ := wcoj4.WCOJStats(); seg == 0 {
		t.Error("no Figure-5 query executed a parallel WCOJ segment")
	}
	for _, eng := range []*sparql.Engine{bin1, bin4} {
		if seg, _, _, _ := eng.WCOJStats(); seg != 0 {
			t.Errorf("a DisableWCOJ engine (%d workers) executed %d WCOJ segments", eng.Parallelism, seg)
		}
	}
}

// TestCaseStudiesByteIdentical is the determinism matrix over the three case
// studies: serial bytes against 2, 4 and 8 workers, without the trie walk
// and without the planner, each serially and on 4 workers. The case studies
// are where frames join frames — nested subqueries, OPTIONAL of a subquery,
// a full outer join compiled to a UNION of two of those — so every change
// byte-diffs the shapes the join operator and subplan sharing act on, not
// only Q1–Q15.
func TestCaseStudiesByteIdentical(t *testing.T) {
	env := sharedEnv(t)
	assertByteIdentical(t, env, CaseStudies(), engineConfig{"serial", newEngine(env, 1, nil)}, []engineConfig{
		{"2 workers", newEngine(env, 2, nil)},
		{"4 workers", newEngine(env, 4, nil)},
		{"8 workers", newEngine(env, 8, nil)},
		{"DisableWCOJ, 1 worker", newEngine(env, 1, noWCOJ)},
		{"DisableWCOJ, 4 workers", newEngine(env, 4, noWCOJ)},
		{"DisableReorder, 1 worker", newEngine(env, 1, noReorder)},
		{"DisableReorder, 4 workers", newEngine(env, 4, noReorder)},
	})
}
