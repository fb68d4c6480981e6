package obs

import (
	"runtime"
	"sync"
	"time"
)

// Runtime surfaces: goroutine, heap, and GC gauges sampled into the
// registry at scrape time. runtime.ReadMemStats briefly stops the world,
// so samples are cached for memStatsTTL — a scrape storm (several
// families reading the same stats, or an aggressive scraper) costs one
// stop-the-world per TTL window, not one per gauge read.

const memStatsTTL = time.Second

// memSampler caches one runtime.MemStats snapshot per TTL window.
type memSampler struct {
	mu    sync.Mutex
	at    time.Time
	stats runtime.MemStats
}

func (m *memSampler) sample() *runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > memStatsTTL || m.at.IsZero() {
		runtime.ReadMemStats(&m.stats)
		m.at = time.Now()
	}
	return &m.stats
}

// RegisterRuntimeMetrics registers the Go runtime gauges on reg:
// goroutine count, GOMAXPROCS, heap alloc/sys bytes, cumulative GC runs
// and total GC pause time. Idempotent — re-registering re-points the
// read-through functions at a fresh sampler.
func RegisterRuntimeMetrics(reg *Registry) {
	var ms memSampler
	reg.GaugeFunc("rdfframes_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("rdfframes_gomaxprocs",
		"Value of GOMAXPROCS.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.GaugeFunc("rdfframes_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(ms.sample().HeapAlloc) })
	reg.GaugeFunc("rdfframes_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS (runtime.MemStats.HeapSys).",
		func() float64 { return float64(ms.sample().HeapSys) })
	reg.GaugeFunc("rdfframes_heap_objects",
		"Number of allocated heap objects.",
		func() float64 { return float64(ms.sample().HeapObjects) })
	reg.CounterFunc("rdfframes_gc_runs_total",
		"Completed GC cycles since process start.",
		func() float64 { return float64(ms.sample().NumGC) })
	reg.CounterFunc("rdfframes_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(ms.sample().PauseTotalNs) / 1e9 })
	reg.CounterFunc("rdfframes_alloc_bytes_total",
		"Cumulative bytes allocated since process start.",
		func() float64 { return float64(ms.sample().TotalAlloc) })
}
