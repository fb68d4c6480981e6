package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGeneratedSPARQLGolden pins the SPARQL text both generators write for
// every task: testdata/sparql/<id>.rq holds the optimized query and
// <id>.naive.rq the naive one. A diff is a change in what the compiler
// emits — rerun with -update and review the new texts when it is
// intentional.
func TestGeneratedSPARQLGolden(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range append(CaseStudies(), Synthetic()...) {
		t.Run(task.ID, func(t *testing.T) {
			frame := task.Frame(env)
			for _, gen := range []struct {
				suffix  string
				compile func() (string, error)
			}{
				{".rq", frame.ToSPARQL},
				{".naive.rq", frame.ToNaiveSPARQL},
			} {
				got, err := gen.compile()
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "sparql", task.ID+gen.suffix)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden query (run `go test ./internal/bench -run GeneratedSPARQLGolden -update`): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s changed:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			}
		})
	}
}
