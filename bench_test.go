// Benchmarks regenerating every figure of the paper's evaluation (§6).
//
//	Figure 3 (a,b,c): design decisions — naive generation vs navigation +
//	    dataframes vs RDFFrames on the three case studies.
//	Figure 4 (a,b,c): baselines — rdflib-style scan and per-pattern SPARQL
//	    (both + dataframes) vs expert SPARQL vs RDFFrames.
//	Figure 5: the 15-query synthetic workload under expert SPARQL, naive
//	    generation, and RDFFrames.
//
// Run with: go test -bench=. -benchmem
// The absolute numbers reflect the in-process Go engine on synthetic data;
// the comparisons within a figure are the reproduction target (see
// PERFORMANCE.md).
package rdfframes_test

import (
	"sync"
	"testing"

	"rdfframes/internal/bench"
)

var (
	benchOnce sync.Once
	benchEnv  *bench.Env
	benchErr  error
)

func sharedBenchEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv, benchErr = bench.NewEnv(bench.ScaleSmall) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

func benchTask(b *testing.B, taskID string, approaches []bench.Approach) {
	env := sharedBenchEnv(b)
	var task *bench.Task
	for _, t := range append(bench.CaseStudies(), bench.Synthetic()...) {
		if t.ID == taskID {
			task = t
			break
		}
	}
	if task == nil {
		b.Fatalf("unknown task %s", taskID)
	}
	for _, a := range approaches {
		b.Run(string(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := task.Run(env, a); err != nil {
					b.Fatalf("%s under %s: %v", taskID, a, err)
				}
			}
		})
	}
}

var fig3Approaches = []bench.Approach{bench.Naive, bench.NavPandas, bench.RDFFrames}
var fig4Approaches = []bench.Approach{bench.ScanPandas, bench.SPARQLPandas, bench.Expert, bench.RDFFrames}
var fig5Approaches = []bench.Approach{bench.Expert, bench.Naive, bench.RDFFrames}

// Figure 3: evaluating the design decisions of RDFFrames.

func BenchmarkFigure3a_MovieGenre(b *testing.B)    { benchTask(b, "cs1", fig3Approaches) }
func BenchmarkFigure3b_TopicModeling(b *testing.B) { benchTask(b, "cs2", fig3Approaches) }
func BenchmarkFigure3c_KGEmbedding(b *testing.B)   { benchTask(b, "cs3", fig3Approaches) }

// Figure 4: comparing RDFFrames to alternative baselines.

func BenchmarkFigure4a_MovieGenre(b *testing.B)    { benchTask(b, "cs1", fig4Approaches) }
func BenchmarkFigure4b_TopicModeling(b *testing.B) { benchTask(b, "cs2", fig4Approaches) }
func BenchmarkFigure4c_KGEmbedding(b *testing.B)   { benchTask(b, "cs3", fig4Approaches) }

// Figure 5: the synthetic workload, one benchmark per query.

func BenchmarkFigure5_Q01(b *testing.B) { benchTask(b, "Q1", fig5Approaches) }
func BenchmarkFigure5_Q02(b *testing.B) { benchTask(b, "Q2", fig5Approaches) }
func BenchmarkFigure5_Q03(b *testing.B) { benchTask(b, "Q3", fig5Approaches) }
func BenchmarkFigure5_Q04(b *testing.B) { benchTask(b, "Q4", fig5Approaches) }
func BenchmarkFigure5_Q05(b *testing.B) { benchTask(b, "Q5", fig5Approaches) }
func BenchmarkFigure5_Q06(b *testing.B) { benchTask(b, "Q6", fig5Approaches) }
func BenchmarkFigure5_Q07(b *testing.B) { benchTask(b, "Q7", fig5Approaches) }
func BenchmarkFigure5_Q08(b *testing.B) { benchTask(b, "Q8", fig5Approaches) }
func BenchmarkFigure5_Q09(b *testing.B) { benchTask(b, "Q9", fig5Approaches) }
func BenchmarkFigure5_Q10(b *testing.B) { benchTask(b, "Q10", fig5Approaches) }
func BenchmarkFigure5_Q11(b *testing.B) { benchTask(b, "Q11", fig5Approaches) }
func BenchmarkFigure5_Q12(b *testing.B) { benchTask(b, "Q12", fig5Approaches) }
func BenchmarkFigure5_Q13(b *testing.B) { benchTask(b, "Q13", fig5Approaches) }
func BenchmarkFigure5_Q14(b *testing.B) { benchTask(b, "Q14", fig5Approaches) }
func BenchmarkFigure5_Q15(b *testing.B) { benchTask(b, "Q15", fig5Approaches) }

// Component micro-benchmarks: the cost of query generation itself (the
// compiler is on the critical path of every Execute).

func BenchmarkQueryGeneration(b *testing.B) {
	env := sharedBenchEnv(b)
	task := bench.CaseStudies()[0]
	frame := task.Frame(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frame.ToSPARQL(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveQueryGeneration(b *testing.B) {
	env := sharedBenchEnv(b)
	task := bench.CaseStudies()[0]
	frame := task.Frame(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frame.ToNaiveSPARQL(); err != nil {
			b.Fatal(err)
		}
	}
}
