package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianPercentileGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	hundred := make([]float64, 101)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := percentile(hundred, p); !near(got, p) {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	if got := percentile([]float64{10, 20}, 75); !near(got, 17.5) {
		t.Errorf("percentile interpolation = %v, want 17.5", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{0, 4, 9}); !near(got, 6) {
		t.Errorf("geomean skipping zero = %v, want 6", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is what the acceptance rule is computed with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusDeclaredChildren(t *testing.T) {
	rec := newRecorder()
	op := rec.newOp("cs1", spanOp)
	sel := op.timed(spanSelect, func() {})
	handler := sel.timed(spanHandler, func() {})
	handler.span(spanDo, func() {})
	sel.span(spanDecode, func() {})
	op.end(op.parent)
	// Durations by hand: replays run after their parent ended, so only the
	// declared parent links tie them together.
	set := func(name string, start, end int64) {
		for i := range rec.spans {
			if rec.spans[i].Name == name {
				rec.spans[i].Start, rec.spans[i].End = start, end
			}
		}
	}
	set(spanOp, 0, 100)
	set(spanSelect, 100, 190)  // 90, children 50 + 30
	set(spanHandler, 190, 240) // 50, child 60: clamps to 0
	set(spanDo, 240, 300)      // 60
	set(spanDecode, 300, 330)  // 30
	self := selfTimes(rec.spans)
	want := map[string]int64{spanOp: 10, spanSelect: 10, spanHandler: 0, spanDo: 60, spanDecode: 30}
	for _, s := range rec.spans {
		if self[s.ID] != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, self[s.ID], want[s.Name])
		}
	}
	// Coverage counts the layers' self time against the op's duration.
	if got := coverage(rec.spans); !near(got, 1.0) {
		t.Errorf("coverage = %v, want (10+0+60+30)/100", got)
	}
}

func TestLedgerMetricsSumKindMedians(t *testing.T) {
	rec := newRecorder()
	add := func(kind string, doMs int64) {
		op := rec.newOp(kind, spanOp)
		op.span(spanDo, func() {})
		op.end(op.parent)
		last := &rec.spans[len(rec.spans)-1]
		last.Start, last.End = 0, doMs*1e6
	}
	add("cs1", 10)
	add("cs1", 30)
	add("Q1", 5)
	out := map[string]float64{}
	ledgerMetrics(rec.spans, out)
	if got := out["sparql.do_ms"]; !near(got, 25) {
		t.Errorf("sparql.do_ms = %v, want median(10,30) + 5", got)
	}
	if got, ok := out["client.select_ms"]; !ok || got != 0 {
		t.Errorf("client.select_ms = %v, %v; want 0 for a layer no op crossed", got, ok)
	}
	if _, err := layerReport(map[string]float64{"sparql.do_msec": 1}); err == nil {
		t.Error("layerReport took a value under a name that is no per-layer metric")
	}
}

func planKinds(p *plan) string {
	var sb strings.Builder
	for _, c := range p.clients {
		for _, o := range c {
			fmt.Fprintf(&sb, "%s:%d ", o.kind, o.want)
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func TestSeedFixesTheSchedule(t *testing.T) {
	if a, b := planKinds(framesPlan(nil, 7)), planKinds(framesPlan(nil, 7)); a != b {
		t.Errorf("frames schedule differs for one seed:\n%s\n%s", a, b)
	}
	if planKinds(framesPlan(nil, 7)) == planKinds(framesPlan(nil, 8)) {
		t.Error("frames schedule is the same for two seeds")
	}
	a, b := framesPlan(nil, 7), framesPlan(nil, 7)
	first := planKinds(a)
	a.reorder()
	b.reorder()
	if planKinds(a) != planKinds(b) || planKinds(a) == first {
		t.Error("the second pass of a frames schedule must be a new order, the same for one seed")
	}
	cycles := func(seed int64) string { return fmt.Sprint(refreshSchedule(rand.New(rand.NewSource(seed)))) }
	if cycles(7) != cycles(7) {
		t.Error("refresh schedule differs for one seed")
	}
	if cycles(7) == cycles(8) {
		t.Error("refresh schedule is the same for two seeds")
	}
	if a, b := refreshUpdate(3, 100, true), refreshUpdate(3, 100, true); a != b {
		t.Error("refresh batch text differs between calls")
	}
}

func TestRefreshScheduleIsNetZero(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		cycles := refreshSchedule(rand.New(rand.NewSource(seed)))
		if len(cycles) != 16 {
			t.Fatalf("seed %d: %d cycles", seed, len(cycles))
		}
		count := map[string]int{}
		for _, c := range cycles {
			count[c.kind]++
		}
		if count[kindInsert] != 8 || count[kindDelete] != 7 || count[kindSweep] != 1 {
			t.Fatalf("seed %d: kinds %v, want 8:7:1", seed, count)
		}
		live := map[int]bool{}
		for _, c := range cycles {
			switch c.kind {
			case kindInsert:
				if live[c.batch] || c.batch < refreshFirstBatch {
					t.Fatalf("seed %d: insert of batch %d", seed, c.batch)
				}
				live[c.batch] = true
			case kindDelete:
				if !live[c.batch] {
					t.Fatalf("seed %d: delete of batch %d, which is not live", seed, c.batch)
				}
				delete(live, c.batch)
			case kindSweep:
				if len(live) == 0 {
					t.Fatalf("seed %d: sweep with nothing live", seed)
				}
				live = map[int]bool{}
			}
			if c.live != len(live) {
				t.Fatalf("seed %d: cycle says %d live, want %d", seed, c.live, len(live))
			}
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: pass leaves %d batches live", seed, len(live))
		}
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := boundSpec{Name: "kind_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	cases := []struct {
		name    string
		spec    boundSpec
		change  []float64
		verdict string
	}{
		{"same values", lower, parent, verdictSame},
		{"2% slower is inside the bound", lower, scale(1.02), verdictSame},
		{"15% slower", lower, scale(1.15), verdictRegression},
		{"15% faster wins every pair", lower, scale(0.85), verdictGain},
		{"15% less throughput", higher, scale(0.85), verdictRegression},
		{"15% more throughput", higher, scale(1.15), verdictGain},
		{"8% slower in every pair is inside the bound and still a loss", lower, scale(1.08), verdictPairedLoss},
		{"8% less throughput in every pair", higher, scale(0.92), verdictPairedLoss},
		{"spread wider than the bound", lower, noisy, verdictUnresolved},
	}
	for _, c := range cases {
		if got := compareMetric(c.spec, parent, c.change); got.verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.verdict, got)
		}
	}
	// Below ten pairs the pairing rule cannot be met in either direction:
	// one pair has no quartile distance and wins 1 of 1.
	for _, n := range []int{1, 3, 9} {
		for f, name := range map[float64]string{0.92: "8% faster", 1.08: "8% slower"} {
			if got := compareMetric(lower, parent[:n], scale(f)[:n]); got.verdict != verdictTooFew {
				t.Errorf("%d pairs, %s: verdict %q, want %q (%+v)", n, name, got.verdict, verdictTooFew, got)
			}
		}
		if got := compareMetric(lower, parent[:n], scale(1.15)[:n]); got.verdict != verdictRegression {
			t.Errorf("%d pairs, 15%% slower: verdict %q, want the bound to hold at any pair count", n, got.verdict)
		}
		if got := compareMetric(lower, parent[:n], parent[:n]); got.verdict != verdictSame {
			t.Errorf("%d pairs, same values: verdict %q, want %q", n, got.verdict, verdictSame)
		}
	}
	if got := compareMetric(lower, parent[:1], scale(0.99)[:1]); got.verdict != verdictTooFew {
		t.Errorf("one pair, 1%% faster: verdict %q, want %q", got.verdict, verdictTooFew)
	}
	// A median gap inside the parent's own quartile distance is no gain,
	// however many pairs the change wins.
	wide := []float64{96, 98, 100, 102, 104, 97, 99, 101, 103, 100}
	better := make([]float64, len(wide))
	for i, v := range wide {
		better[i] = v - 1
	}
	if got := compareMetric(lower, wide, better); got.verdict != verdictSame || got.wins != len(wide) {
		t.Errorf("small consistent gap: %+v, want %d wins and %q", got, len(wide), verdictSame)
	}
}

func TestCompareReadsPairsAndExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"kind_geomean_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := envInfo{Scale: "bench", Triples: 221987, Seed: 1}
	writeEnv := func(name string, ms float64, failed int, env envInfo) string {
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(result{Workload: "frames_paper", Env: env, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"kind_geomean_ms": {ms, "ms"}}})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write := func(name string, ms float64, failed int) string { return writeEnv(name, ms, failed, bench) }
	p1, p2 := write("p1.json", 100, 0), write("p2.json", 101, 0)
	slow1, slow2 := write("s1.json", 130, 0), write("s2.json", 131, 0)
	bad := write("bad.json", 100, 3)
	var out bytes.Buffer
	if code := runCompare(bounds, []string{p1, p2, p2, p1}, &out); code != 0 {
		t.Errorf("same commit both ways: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(bounds, []string{p1, slow1, p2, slow2}, &out); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(bounds, []string{p1, bad}, &out); code != 1 {
		t.Errorf("more failed ops: exit %d\n%s", code, out.String())
	}
	if code := runCompare(bounds, []string{p1}, &out); code != 2 {
		t.Errorf("odd file count: exit %d", code)
	}
	// One pair, 1% faster: no claim of a gain.
	out.Reset()
	if code := runCompare(bounds, []string{p2, p1}, &out); code != 0 || strings.Contains(out.String(), verdictGain) {
		t.Errorf("one pair, 1%% faster: exit %d\n%s", code, out.String())
	}
	// Runs on other data, or of another schedule, do not pair.
	for name, env := range map[string]envInfo{
		"scale":     {Scale: "small", Triples: 221987, Seed: 1},
		"data seed": {Scale: "bench", Triples: 221987, Seed: 1, DataSeed: 3},
		"triples":   {Scale: "bench", Triples: 5000, Seed: 1},
		"seed":      {Scale: "bench", Triples: 221987, Seed: 2},
	} {
		other := writeEnv("other.json", 100, 0, env)
		if code := runCompare(bounds, []string{p1, other}, &out); code != 2 {
			t.Errorf("pair differing in %s: exit %d, want 2", name, code)
		}
	}
	// Nor do pairs of one workload measured on different data.
	small := envInfo{Scale: "small", Triples: 5000, Seed: 1}
	s1, s2 := writeEnv("small1.json", 100, 0, small), writeEnv("small2.json", 100, 0, small)
	if code := runCompare(bounds, []string{p1, p2, s1, s2}, &out); code != 2 {
		t.Errorf("pairs on two datasets: exit %d, want 2", code)
	}
}

func TestGoldenDigestsMustCoverEveryKind(t *testing.T) {
	golden := map[string]digest{"cs1": {Rows: 3, SHA256: "aa"}}
	v := &verdict{digests: map[string]digest{}}
	v.checkGolden(golden, "cs1", digest{3, "aa"})
	if v.failed != 0 {
		t.Errorf("matching digest: %d failures", v.failed)
	}
	v.checkGolden(golden, "cs1", digest{3, "bb"})
	v.checkGolden(golden, "Q1", digest{1, "cc"})
	if v.failed != 2 {
		t.Errorf("wrong digest and missing entry: %d failures, want 2", v.failed)
	}
	v.checkGolden(nil, "Q1", digest{1, "cc"}) // another dataset: nothing to compare with
	if v.failed != 2 || v.digests["Q1"].SHA256 != "cc" {
		t.Errorf("without goldens: %d failures, digests %v", v.failed, v.digests)
	}
	committed, err := loadGolden("bench", 0)
	if err != nil || len(committed) != len(allTasks())+2 {
		t.Errorf("committed goldens: %d entries, %v; want the 18 tasks, the export and the features", len(committed), err)
	}
}

func TestDurabilityCheckSeesALostBatch(t *testing.T) {
	sc, err := scaleOf("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prepare(t.TempDir(), sc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setupRecover(in)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.eng.Update(context.Background(), refreshUpdate(refreshFirstBatch, in.movies, true), ""); err != nil {
		t.Fatal(err)
	}
	live, err := storeDigests(s.st)
	if err != nil {
		t.Fatal(err)
	}
	walPath := s.walPath
	s.close()
	if n := verifyDurability(in, live, walPath); n != 0 {
		t.Errorf("replaying the run's WAL: %d failures, want 0", n)
	}
	// The prepared WAL alone is a log that lost the acknowledged batch.
	if n := verifyDurability(in, live, in.wal); n == 0 {
		t.Error("replaying a log without the last batch passed the durability check")
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []boundSpec                           `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNamesWhatTheProgramReports(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, program reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	reported := endToEnd(&passes{ops: 1, wallS: []float64{1}}, 1, []float64{1}, 1, 1)
	if len(b.EndToEnd) != len(reported) {
		t.Errorf("%d end-to-end metrics listed, program reports %d", len(b.EndToEnd), len(reported))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		got, ok := reported[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// exercised lists, per workload, per-layer metrics that must not be 0 there:
// the layers the workload exists to show. idle lists some that must be 0,
// because its ops never cross them.
var exercised = map[string]struct{ busy, idle []string }{
	"frames_paper": {
		busy: []string{"core.compile_ms", "sparql.do_ms", "sparql.encode_json_ms", "sparql.json_bytes_out", "sparql.decode_json_ms",
			"server.handler_ms", "client.select_ms", "client.round_trips", "dataframe.build_ms", "dataframe.csv_stream_mb_per_s",
			"rdf.parse_nt_mb_per_s", "store.load_nt_s", "sparql.evaluations"},
		idle: []string{"sparql.serve_hit_ms", "client.update_ms", "snapshot.read_s", "store.wal_replay_s", "store.version_bumps"},
	},
	"frames_embedded": {
		busy: []string{"core.compile_ms", "sparql.parse_ms", "sparql.estimate_ms", "sparql.do_ms", "sparql.exec_self_ms",
			"dataframe.build_ms", "dataframe.csv_peak_buffer_bytes", "snapshot.read_s", "sparql.wcoj_seeks", "store.match_ns_per_triple"},
		idle: []string{"client.select_ms", "server.handler_ms", "sparql.encode_json_ms", "sparql.decode_json_ms", "client.round_trips", "store.load_nt_s"},
	},
	"serve_warm": {
		busy: []string{"sparql.serve_hit_ms", "server.handler_ms", "client.select_ms", "sparql.decode_json_ms", "sparql.cache_hit_ratio",
			"server.admitted", "server.requests_2xx", "snapshot.read_s"},
		idle: []string{"sparql.do_ms", "sparql.evaluations", "core.compile_ms", "client.update_ms", "dataframe.csv_stream_mb_per_s"},
	},
	"refresh_rw": {
		busy: []string{"client.update_ms", "sparql.update_ms", "store.apply_batch_ms", "store.wal_append_ms", "store.wal_bytes_per_triple",
			"store.wal_replay_s", "store.version_bumps", "store.tombstones_end", "store.compact_ms", "sparql.do_ms", "client.select_ms",
			"sparql.evaluations", "snapshot.read_s"},
		idle: []string{"sparql.serve_hit_ms", "sparql.cache_hit_ratio", "rdf.parse_nt_mb_per_s", "dataframe.csv_stream_mb_per_s"},
	},
}

// checkTraceFile reads a trace back and checks that replays sit under the
// op they explain: a frames pass reorders its ops, and a replay that kept
// its place would put the export's stream under another kind.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("trace file: %v", err)
		return
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
		t.Errorf("trace file %s: %d spans, %v", path, len(tf.Spans), err)
		return
	}
	rootKind := map[int]string{}
	for _, s := range tf.Spans {
		if s.Parent < 0 {
			rootKind[s.Op] = s.Kind
		}
	}
	only := map[string]string{spanCSVStream: kindExport, spanFeatures: kindFeatures}
	for _, s := range tf.Spans {
		if want, ok := only[s.Name]; ok && rootKind[s.Op] != want {
			t.Errorf("span %s under an op of kind %s, want %s", s.Name, rootKind[s.Op], want)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload in both modes at the small
// scale for one pass and checks that every metric BENCHMARK.json names is
// reported as a finite number, that a traced run measures the layers its
// workload crosses and no others, and that no op failed.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel() // the values are not judged here, only that they exist
				out := t.TempDir()
				res, err := run(config{workload: w.name, seed: 1, seconds: 0, trace: trace,
					scale: "small", work: t.TempDir(), out: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				var want []string
				if trace {
					for _, m := range b.PerLayer {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range b.EndToEnd {
						want = append(want, m.Name)
					}
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				sort.Strings(want)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics reported %v\nwant %v", got, want)
				}
				if trace {
					checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
					for _, name := range exercised[w.name].busy {
						if res.Metrics[name].Value == 0 {
							t.Errorf("%s = 0 on a workload that exercises it", name)
						}
					}
					for _, name := range exercised[w.name].idle {
						if res.Metrics[name].Value != 0 {
							t.Errorf("%s = %v on a workload that never crosses it", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}
