package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Get-or-create: the same (name, labels) returns the same instrument.
	if again := reg.Counter("test_total", "help"); again != c {
		t.Fatal("re-registering returned a different counter")
	}

	g := reg.Gauge("test_gauge", "help")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "help", L("k", "a"))
	b := reg.Counter("shared_total", "help", L("k", "b"))
	if a == b {
		t.Fatal("distinct label sets shared an instrument")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("increment leaked across label sets")
	}
	// Label order must not matter: {x,y} and {y,x} are the same series.
	p := reg.Counter("multi_total", "help", L("x", "1"), L("y", "2"))
	q := reg.Counter("multi_total", "help", L("y", "2"), L("x", "1"))
	if p != q {
		t.Fatal("label order produced distinct series")
	}
}

// TestHotPathAllocationFree pins the zero-allocation contract of the
// request-path instrument operations: a counter bump, a gauge set, and a
// histogram observation must not allocate, or per-request overhead grows
// with GC pressure instead of staying two atomic ops.
func TestHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("alloc_total", "help")
	g := reg.Gauge("alloc_gauge", "help")
	h := reg.Histogram("alloc_seconds", "help", nil)

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.012) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op, want 0", n)
	}
}

// Per-operation cost of the request-path instruments — the numbers the
// PERFORMANCE.md overhead budget cites. Run with:
//
//	go test -bench Instrument -benchmem ./internal/obs
func BenchmarkInstrumentCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkInstrumentGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkInstrumentHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "help", DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform over (0, 1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	// Interpolated within [0,1): p50 ≈ 0.5, p99 ≈ 0.99.
	if p50 := h.Quantile(0.50); math.Abs(p50-0.5) > 0.05 {
		t.Errorf("p50 = %v, want ~0.5", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-0.99) > 0.05 {
		t.Errorf("p99 = %v, want ~0.99", p99)
	}

	// Monotonicity: estimates never invert as q grows.
	prev := 0.0
	for q := 0.01; q <= 1.0; q += 0.01 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile inverted: q=%.2f -> %v after %v", q, cur, prev)
		}
		prev = cur
	}

	// Empty histogram: 0, not NaN.
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Fatalf("empty-histogram quantile = %v, want 0", got)
	}

	// +Inf bucket: an observation past the last bound reports the last
	// bound (no upper edge to interpolate toward).
	over := NewHistogram([]float64{1, 2})
	over.Observe(100)
	if got := over.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}
}

// TestPrometheusRoundTrip renders a populated registry and re-reads it with
// ParseText: every series must survive with its value and type intact —
// the property the server's /metrics tests rely on.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_requests_total", "requests", L("code", "200")).Add(7)
	reg.Counter("rt_requests_total", "requests", L("code", "500")).Add(1)
	reg.Gauge("rt_inflight", "in flight").Set(3)
	reg.GaugeFunc("rt_version", "version", func() float64 { return 42 })
	h := reg.Histogram("rt_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	samples, types, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText on our own output: %v\n%s", err, text)
	}

	want := map[string]float64{
		`rt_requests_total{code="200"}`: 7,
		`rt_requests_total{code="500"}`: 1,
		`rt_inflight`:                   3,
		`rt_version`:                    42,
		`rt_seconds_bucket{le="0.1"}`:   1,
		`rt_seconds_bucket{le="1"}`:     2,
		`rt_seconds_bucket{le="+Inf"}`:  3,
		`rt_seconds_count`:              3,
		`rt_seconds_sum`:                5.55,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("sample %s missing from exposition:\n%s", name, text)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("sample %s = %v, want %v", name, got, v)
		}
	}
	for fam, typ := range map[string]MetricType{
		"rt_requests_total": TypeCounter,
		"rt_inflight":       TypeGauge,
		"rt_version":        TypeGauge,
		"rt_seconds":        TypeHistogram,
	} {
		if types[fam] != typ {
			t.Errorf("family %s type = %q, want %q", fam, types[fam], typ)
		}
	}
}

func TestFamilyOf(t *testing.T) {
	cases := map[string]string{
		`rdfframes_query_seconds_bucket{le="1"}`:     "rdfframes_query_seconds",
		`rdfframes_query_seconds_sum`:                "rdfframes_query_seconds",
		`rdfframes_query_seconds_count`:              "rdfframes_query_seconds",
		`rdfframes_http_requests_total{code="200"}`:  "rdfframes_http_requests_total",
		`rdfframes_goroutines`:                       "rdfframes_goroutines",
		`rdfframes_cache_hits_total{cache="result"}`: "rdfframes_cache_hits_total",
	}
	for in, want := range cases {
		if got := FamilyOf(in); got != want {
			t.Errorf("FamilyOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestEachMatchesExposition cross-checks the two read paths: every scalar
// Each yields must equal the value the text exposition renders for the
// same series name.
func TestEachMatchesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help").Add(5)
	reg.Gauge("x_gauge", "help").Set(2.5)
	reg.Histogram("x_seconds", "help", nil).Observe(0.25)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	n := 0
	reg.Each(func(name string, _ MetricType, value float64) {
		n++
		got, ok := samples[name]
		if !ok {
			t.Errorf("Each series %s not in exposition", name)
			return
		}
		if math.Abs(got-value) > 1e-9 {
			t.Errorf("series %s: Each=%v exposition=%v", name, value, got)
		}
	})
	if n == 0 {
		t.Fatal("Each visited nothing")
	}
}
