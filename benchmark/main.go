// Command benchmark is the repository's benchmark: four closed-loop
// workloads of the paper's frame calls at one committed scale, end-to-end
// metrics from a measured run, per-layer metrics from a separate traced run,
// and an output check in the same command. See README.md beside this file.
//
//	go run ./benchmark --workload frames_paper --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                      # every workload, both modes
//	go run ./benchmark -compare parent.json change.json [...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	scale        string // "bench", the one committed scale; the tests run "small"
	dataSeed     int64
	work         string
	out          string
	updateGolden bool
}

// envInfo records where a result was measured.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Scale      string `json:"scale"`
	Triples    int    `json:"triples"`
	Seed       int64  `json:"seed"`
	DataSeed   int64  `json:"data_seed"`
}

// result is the full record of one run, written to the output directory and
// read back by -compare. The line printed on standard output is its
// correct, attempted, failed and metrics fields.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Passes    int               `json:"passes"`
	Kinds     []kindRow         `json:"kinds,omitempty"`
	Digests   map[string]digest `json:"digests,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
}

func main() {
	cfg := config{scale: "bench"}
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: frames_paper, frames_embedded, serve_warm, refresh_rw, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op schedule (call order, page draws, refresh order, probe set)")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long the run measures; whole passes, at least one")
	flag.IntVar(&trace, "trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Int64Var(&cfg.dataSeed, "dataseed", 0, "offset added to the three generator seeds; non-zero runs have no golden digests")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs; each run uses and removes its own subdirectory")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for result and trace files")
	flag.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite "+goldenPath+" from this run's digests (run from the repo root)")
	flag.BoolVar(&compare, "compare", false, "compare result files given as parent/change pairs against the BENCHMARK.json bounds")
	benchFile := flag.String("bounds", "BENCHMARK.json", "with -compare: the file holding the metric bounds")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		os.Exit(runCompare(*benchFile, flag.Args(), os.Stdout))
	}
	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := emit(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in both modes, each in a process of its own so
// that memory metrics start from a fresh heap, passing the other flags on.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "trace" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	status := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			fmt.Fprintf(os.Stderr, "== %s trace=%s\n", w.name, trace)
			cmd := exec.Command(self, append([]string{"-workload", w.name, "-trace", trace}, pass...)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%s: %v\n", w.name, trace, err)
				status = 1
			}
		}
	}
	return status
}

func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// emit writes the result file, prints the detail table to standard error
// and the contract line to standard output.
func emit(cfg config, res *result) error {
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, cfg.seed, b2i(cfg.trace))
		if cfg.dataSeed != 0 { // another dataset must not overwrite the committed one's result
			name = fmt.Sprintf("%s-data%d-seed%d-trace%d.json", res.Workload, cfg.dataSeed, cfg.seed, b2i(cfg.trace))
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, k := range res.Kinds {
		fmt.Fprintf(os.Stderr, "%-14s n=%-6d median=%9.3f ms  max=%9.3f ms\n", k.Kind, k.Samples, k.MedianMs, k.MaxMs)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "WARNING:", w)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// phaseLog returns a function that reports, on standard error, the time
// since it was last called.
func phaseLog() func(name string) {
	last := time.Now()
	return func(name string) {
		fmt.Fprintf(os.Stderr, "%-16s %6.2f s\n", name, time.Since(last).Seconds())
		last = time.Now()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run prepares inputs, sets the workload up, and runs it measured or traced.
func run(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sc, err := scaleOf(cfg.scale, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden(cfg.scale, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	if cfg.updateGolden {
		golden = nil
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	phase := phaseLog()
	in, err := prepare(dir, sc)
	defer os.RemoveAll(dir)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	debug.FreeOSMemory()
	resetRSSPeak()
	phase("prepare")

	sys, setupS, err := timedSetup(w.setup, in, cfg.seconds, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	phase("set-up")
	heapLive := heapLiveBytes()
	p, err := w.plan(sys, in, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if warm := runPass(p, true, nil); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d ops failed", warm.failed, len(warm.samples))
	}
	phase("warm-up")

	res := &result{
		Workload: w.name,
		Trace:    cfg.trace,
		Env: envInfo{
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: buildCommit(), Scale: sc.name, Triples: in.triples, Seed: cfg.seed, DataSeed: cfg.dataSeed,
		},
	}
	var ps *passes
	if cfg.trace {
		ps, err = runTraced(cfg, w, sys, in, p, heapLive, golden, res)
	} else {
		ps, err = runMeasured(cfg, w, sys, in, p, setupS, heapLive, golden, res)
	}
	if err != nil {
		return nil, err
	}
	phase("run and verify")
	res.Passes, res.Kinds = ps.n, ps.kindTable()
	res.Correct = res.Failed == 0
	if cfg.updateGolden {
		if err := writeGolden(res.Digests); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finish runs the verify phase and folds its outcome into res: any verify
// failure fails every attempted op, because the measured ops then timed a
// system that returns wrong tables.
func finish(w workload, sys *system, in *inputs, p *plan, golden map[string]digest, timed bool, ops, failed int, res *result) *verdict {
	v := verify(sys, p, golden, timed)
	verifyFailed := v.failed
	if w.durable {
		// Passes leave nothing live; one more acknowledged insert makes the
		// state that must survive differ from the snapshot's.
		_, err := sys.httpClient(0).Update(refreshUpdate(refreshFirstBatch, in.movies, true))
		var live map[string]digest
		if err == nil {
			live, err = storeDigests(sys.st)
		}
		if err != nil {
			verifyFailed++
			logFailure("durability: live state: %v", err)
		} else {
			walPath := sys.walPath
			sys.close()
			verifyFailed += verifyDurability(in, live, walPath)
		}
	}
	res.Attempted, res.Failed, res.Digests = ops, failed, v.digests
	if verifyFailed > 0 || failed > ops {
		res.Failed = ops
	}
	return v
}

// runMeasured is the --trace 0 run: passes with tracing off, then the
// end-to-end metrics.
func runMeasured(cfg config, w workload, sys *system, in *inputs, p *plan, setupS []float64, heapLive uint64, golden map[string]digest, res *result) (*passes, error) {
	before := readCounters(sys)
	ps := runPasses(p, cfg.seconds, 1, nil)
	rssPeak := rssPeakBytes()
	after := readCounters(sys)
	failed := ps.failed
	if w.allHits && after.evals != before.evals {
		// A page request that evaluates is a cache the workload exists to
		// exercise not working; count each evaluation as a failed op.
		failed += int(after.evals - before.evals)
		logFailure("%s: %d evaluations during the measured passes, want 0", w.name, after.evals-before.evals)
	}
	if after.shed != before.shed {
		failed += int(after.shed - before.shed)
		logFailure("%s: server shed %v requests", w.name, after.shed-before.shed)
	}
	res.Metrics = endToEnd(ps, p.opsPerPass(), setupS, heapLive, rssPeak)
	fmt.Fprintf(os.Stderr, "%-16s %6.2f s, %d passes\n", "measured", ps.elapsed.Seconds(), ps.n)
	finish(w, sys, in, p, golden, false, ps.ops, failed, res)
	return ps, nil
}

func writeGolden(d map[string]digest) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
