package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"rdfframes/internal/client"
)

// opSample is one completed op of a pass.
type opSample struct {
	kind string
	ms   float64
}

// passResult is what one pass observed.
type passResult struct {
	wallS   float64
	samples []opSample
	failed  int
	rows    int // rows returned, exports aside
	retries int // HTTP attempts beyond the first, per the clients' LastStats
}

// maxFailureLines bounds the failure detail a run prints to stderr.
const maxFailureLines = 10

var failureLines struct {
	mu sync.Mutex
	n  int
}

func logFailure(format string, args ...any) {
	failureLines.mu.Lock()
	defer failureLines.mu.Unlock()
	if failureLines.n < maxFailureLines {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
	failureLines.n++
}

// runPass runs each client's op list on its own goroutine, closed-loop,
// and returns once all have finished. With learn set, an op that has no
// expected size adopts the one it observes. With rec set, each op is traced:
// a root span around the real call, then the op's layer replays.
func runPass(p *plan, learn bool, rec *recorder) passResult {
	results := make([]passResult, len(p.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range p.clients {
		wg.Add(1)
		var hc *client.HTTPClient
		if p.http != nil {
			hc = p.http[ci]
		}
		go func(ops []op, out *passResult) {
			defer wg.Done()
			out.samples = make([]opSample, 0, len(ops))
			for i := range ops {
				o := &ops[i]
				var tr *tracer
				if rec != nil {
					tr = rec.newOp(o.kind, spanOp)
				}
				under := tr // the span the op's replays belong under
				t0 := time.Now()
				var n int
				var err error
				if tr != nil && o.traced != nil {
					under, n, err = o.traced(tr)
				} else {
					n, err = o.run()
				}
				d := time.Since(t0)
				if hc != nil {
					if a := hc.LastStats().Attempts; a > 1 {
						out.retries += a - 1
					}
				}
				if o.kind != kindExport {
					out.rows += n
				}
				if tr != nil {
					tr.end(tr.parent)
					if o.replay != nil {
						o.replay(under)
					}
				}
				out.samples = append(out.samples, opSample{o.kind, float64(d.Nanoseconds()) / 1e6})
				switch {
				case err != nil:
					out.failed++
					logFailure("%s: %v", o.kind, err)
				case learn && o.want == wantLearned:
					o.want = n
				case n != o.want:
					out.failed++
					logFailure("%s: size %d, want %d", o.kind, n, o.want)
				}
			}
		}(p.clients[ci], &results[ci])
	}
	wg.Wait()
	total := passResult{wallS: time.Since(start).Seconds()}
	for _, r := range results {
		total.samples = append(total.samples, r.samples...)
		total.failed += r.failed
		total.rows += r.rows
		total.retries += r.retries
	}
	return total
}

// passes is the outcome of a timed sequence of passes.
type passes struct {
	n       int
	wallS   []float64            // per pass
	byKind  map[string][]float64 // op latencies in ms
	all     []float64            // every op latency in ms
	ops     int
	failed  int
	rows    int
	retries int
	elapsed time.Duration
	cost    usage // delta over the sequence
}

// runPasses repeats whole passes for about seconds, at least minPasses
// times: it starts another pass while more than half of a typical pass
// still fits, so that the time measured is seconds on average and not
// seconds plus a pass.
func runPasses(p *plan, seconds float64, minPasses int, rec *recorder) *passes {
	out := &passes{byKind: map[string][]float64{}}
	before := readUsage()
	start := time.Now()
	for out.n < minPasses || time.Since(start).Seconds()+median(out.wallS)/2 < seconds {
		if p.reorder != nil {
			p.reorder()
		}
		r := runPass(p, false, rec)
		out.n++
		out.wallS = append(out.wallS, r.wallS)
		out.failed += r.failed
		out.rows += r.rows
		out.retries += r.retries
		out.ops += len(r.samples)
		for _, s := range r.samples {
			out.byKind[s.kind] = append(out.byKind[s.kind], s.ms)
			out.all = append(out.all, s.ms)
		}
	}
	out.elapsed = time.Since(start)
	after := readUsage()
	out.cost = usage{
		cpuNs:      after.cpuNs - before.cpuNs,
		allocBytes: after.allocBytes - before.allocBytes,
		mallocs:    after.mallocs - before.mallocs,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcPauseNs:  after.gcPauseNs - before.gcPauseNs,
	}
	return out
}

// kindRow is one line of the per-kind detail table.
type kindRow struct {
	Kind     string  `json:"kind"`
	Samples  int     `json:"samples"`
	MedianMs float64 `json:"median_ms"`
	MaxMs    float64 `json:"max_ms"`
}

func (ps *passes) kindTable() []kindRow {
	rows := make([]kindRow, 0, len(ps.byKind))
	for k, xs := range ps.byKind {
		rows = append(rows, kindRow{k, len(xs), median(xs), percentile(xs, 100)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Kind < rows[j].Kind })
	return rows
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics from a measured sequence.
func endToEnd(ps *passes, opsPerPass int, setupS []float64, heapLive, rssPeak uint64) map[string]metric {
	var medians []float64
	for _, xs := range ps.byKind {
		medians = append(medians, median(xs))
	}
	ops := float64(ps.ops)
	const mib = 1 << 20
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"kind_geomean_ms": {geomean(medians), "ms"},
		"ops_per_s":       {float64(opsPerPass) / median(ps.wallS), "1/s"},
		"op_p99_ms":       {percentile(ps.all, 99), "ms"},
		"cpu_ms_per_op":   {float64(ps.cost.cpuNs) / 1e6 / ops, "ms"},
		"alloc_kb_per_op": {float64(ps.cost.allocBytes) / 1024 / ops, "KiB"},
		"mallocs_per_op":  {float64(ps.cost.mallocs) / ops, "count"},
		"heap_live_mb":    {float64(heapLive) / mib, "MiB"},
		"rss_peak_mb":     {float64(rssPeak) / mib, "MiB"},
	}
}
