package bench

import (
	"context"
	"sync"
	"testing"

	"rdfframes"
	"rdfframes/internal/sparql"
)

var (
	envOnce sync.Once
	testEnv *Env
	envErr  error
)

func sharedEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { testEnv, envErr = NewEnv(ScaleSmall) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func TestAllTasksDefined(t *testing.T) {
	if n := len(CaseStudies()); n != 3 {
		t.Fatalf("case studies = %d, want 3", n)
	}
	if n := len(Synthetic()); n != 15 {
		t.Fatalf("synthetic queries = %d, want 15", n)
	}
	seen := map[string]bool{}
	for _, task := range append(CaseStudies(), Synthetic()...) {
		if seen[task.ID] {
			t.Fatalf("duplicate task id %s", task.ID)
		}
		seen[task.ID] = true
	}
}

// TestFramesCompileAndParse checks every task's RDFFrames and naive queries
// compile and are valid SPARQL, and every expert query parses.
func TestFramesCompileAndParse(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range append(CaseStudies(), Synthetic()...) {
		t.Run(task.ID, func(t *testing.T) {
			frame := task.Frame(env)
			q, err := frame.ToSPARQL()
			if err != nil {
				t.Fatalf("ToSPARQL: %v", err)
			}
			if _, err := sparql.Parse(q); err != nil {
				t.Fatalf("generated query does not parse: %v\n%s", err, q)
			}
			nq, err := frame.ToNaiveSPARQL()
			if err != nil {
				t.Fatalf("ToNaiveSPARQL: %v", err)
			}
			if _, err := sparql.Parse(nq); err != nil {
				t.Fatalf("naive query does not parse: %v\n%s", err, nq)
			}
			if _, err := sparql.Parse(task.Expert(env)); err != nil {
				t.Fatalf("expert query does not parse: %v\n%s", err, task.Expert(env))
			}
		})
	}
}

// TestTasksReturnRows runs every task under RDFFrames and checks the row
// expectations, ensuring the synthetic datasets actually exercise each
// query.
func TestTasksReturnRows(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range append(CaseStudies(), Synthetic()...) {
		t.Run(task.ID, func(t *testing.T) {
			df, err := task.Run(env, RDFFrames)
			if err != nil {
				t.Fatal(err)
			}
			if task.CheckRows != nil {
				if err := task.CheckRows(df.Len()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSyntheticApproachesAgree verifies RDFFrames, naive, and expert
// produce identical row bags for every synthetic query.
func TestSyntheticApproachesAgree(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range Synthetic() {
		t.Run(task.ID, func(t *testing.T) {
			if err := VerifyTask(env, task, []Approach{Naive, Expert}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCaseStudyApproachesAgree verifies all six approaches agree on the
// case studies.
func TestCaseStudyApproachesAgree(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range CaseStudies() {
		t.Run(task.ID, func(t *testing.T) {
			approaches := []Approach{Naive, Expert, NavPandas, SPARQLPandas, ScanPandas}
			if err := VerifyTask(env, task, approaches); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkEvaluate times one in-process evaluation of each task's
// generated query at bench scale — Engine.Do with no HTTP, JSON or cache —
// which is where PERFORMANCE.md's per-evaluation rows (ms, bytes, mallocs)
// come from. Select tasks with the pattern, e.g.
//
//	go test ./internal/bench -run '^$' -bench 'Evaluate/(Q9|cs1|cs2)$' -benchtime 5x
func BenchmarkEvaluate(b *testing.B) {
	env, err := NewEnv(ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	for _, task := range append(CaseStudies(), Synthetic()...) {
		query, err := task.Frame(env).ToSPARQL()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(task.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.Engine.Do(context.Background(), sparql.Request{Query: query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute is one frame call per task through the in-process client
// at bench scale — compile, evaluate, and the DataFrame the user gets — which
// is where PERFORMANCE.md's per-task Execute bytes come from.
func BenchmarkExecute(b *testing.B) {
	env, err := NewEnv(ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	c := rdfframes.ConnectStore(env.Store)
	for _, task := range append(CaseStudies(), Synthetic()...) {
		b.Run(task.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := task.Frame(env).Execute(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
