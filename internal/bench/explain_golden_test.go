package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/explain and testdata/sparql")

// TestExplainGoldenFigure5 pins the optimized plan of every Figure-5 query:
// join order, filter placement, prune schedule, and estimated vs actual
// cardinalities at the small (test) scale. The datasets are seeded and the
// planner is deterministic, so any diff is a real plan change — rerun with
// -update and review the new plans when the change is intentional.
func TestExplainGoldenFigure5(t *testing.T) {
	env := sharedEnv(t)
	for _, task := range Synthetic() {
		t.Run(task.ID, func(t *testing.T) {
			query, err := task.Frame(env).ToSPARQL()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := env.Engine.Explain(query)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.PlanText()
			path := filepath.Join("testdata", "explain", task.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden plan (run `go test ./internal/bench -run ExplainGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan for %s changed:\n--- got ---\n%s--- want ---\n%s", task.ID, got, want)
			}
		})
	}
}
