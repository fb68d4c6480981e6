package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"rdfframes/internal/client"
	"rdfframes/internal/obs"
	"rdfframes/internal/server"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// Serving-cache sizes for the cache-on workloads. The 18 results hold
// ≈170k rows and each entry's page memo adds at most 32 windows, so 1<<20
// row-equivalents keeps the whole working set resident with room to spare.
const (
	cachePlanEntries = sparql.DefaultPlanCacheEntries
	cacheResultRows  = 1 << 20
	// framePageSize is the HTTP client's pagination chunk for frame calls:
	// larger than any of the 18 results, so one call is one round trip.
	framePageSize = 100000
)

// system is the program under test as one workload sets it up: a store, an
// engine over it and, for the HTTP workloads, the product server behind a
// loopback listener.
type system struct {
	st        *store.Store
	eng       *sparql.Engine
	srv       *server.Server
	reg       *obs.Registry
	ts        *httptest.Server
	wal       *store.WAL
	walPath   string
	transport *countingTransport
	// setupLayers holds what the set-up path clocked of itself, by
	// per-layer metric name: the ingest, the reopen, the recovery.
	setupLayers map[string]float64
}

// countingTransport counts the HTTP requests the benchmark's clients send.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// serve puts the product server in front of the engine on a loopback
// listener, with the metrics registry the product binary enables.
func (s *system) serve() {
	s.srv = server.New(s.eng)
	s.reg = obs.NewRegistry()
	s.srv.EnableMetrics(s.reg)
	s.ts = httptest.NewServer(s.srv.Handler())
	s.transport = &countingTransport{base: &http.Transport{}}
}

// httpClient returns a new product HTTP client against the system's
// endpoint. Clients share one keep-alive connection pool.
func (s *system) httpClient(pageSize int) *client.HTTPClient {
	c := client.NewHTTPClient(s.ts.URL+"/sparql", pageSize)
	c.HTTP = &http.Client{Transport: s.transport}
	return c
}

// close stops the listener and releases the WAL; the system is unusable
// afterwards. Closing twice is harmless.
func (s *system) close() {
	if s.ts != nil {
		s.ts.Close()
		s.transport.base.(*http.Transport).CloseIdleConnections()
		s.ts = nil
	}
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
}

// loadWorkers is the parse parallelism of the ingest path.
func loadWorkers() int { return runtime.GOMAXPROCS(0) }

// loadDumps is the ingest path: parse and index the three N-Triples dumps.
func loadDumps(in *inputs) (*store.Store, error) {
	st := store.New()
	for i, uri := range graphURIs {
		f, err := os.Open(in.dumps[i])
		if err != nil {
			return nil, err
		}
		_, err = st.LoadNTriplesParallel(uri, f, loadWorkers())
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", in.dumps[i], err)
		}
	}
	return st, nil
}

// recoverWAL copies the prepared WAL to a new file in the work directory
// and replays it onto st, returning the open log, positioned for appends,
// and its path. Every caller gets a file of its own: a probe must not
// truncate the log a live system is appending to.
func recoverWAL(in *inputs, st *store.Store) (*store.WAL, string, error) {
	prepared, err := os.ReadFile(in.wal)
	if err != nil {
		return nil, "", err
	}
	f, err := os.CreateTemp(in.dir, "run-*.wal")
	if err != nil {
		return nil, "", err
	}
	path := f.Name()
	if _, err := f.Write(prepared); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	wal, rec, err := store.OpenWAL(path)
	if err != nil {
		return nil, "", err
	}
	switch {
	case rec.Damage != nil:
		err = fmt.Errorf("prepared WAL damaged: %w", rec.Damage)
	case len(rec.Batches) != preparedWALBatches:
		err = fmt.Errorf("prepared WAL holds %d batches, want %d", len(rec.Batches), preparedWALBatches)
	default:
		_, err = rec.Replay(st)
	}
	if err != nil {
		wal.Close()
		return nil, "", err
	}
	return wal, path, nil
}

// setupIngest is frames_paper's set-up: ingest the dumps, start the server
// with caches off.
func setupIngest(in *inputs) (*system, error) {
	start := time.Now()
	st, err := loadDumps(in)
	if err != nil {
		return nil, err
	}
	s := &system{st: st, eng: sparql.NewEngine(st)}
	s.setupLayers = map[string]float64{"store.load_nt_s": time.Since(start).Seconds()}
	s.serve()
	return s, nil
}

// setupReopen is frames_embedded's set-up: reopen the snapshot; no server.
func setupReopen(in *inputs) (*system, error) {
	start := time.Now()
	st, err := snapshot.ReadFile(in.snap)
	if err != nil {
		return nil, err
	}
	s := &system{st: st, eng: sparql.NewEngine(st)}
	s.setupLayers = map[string]float64{"snapshot.read_s": time.Since(start).Seconds()}
	return s, nil
}

// setupWarm is serve_warm's set-up: reopen the snapshot, start the server
// with caches on, and fill the result cache with the 18 results.
func setupWarm(in *inputs) (*system, error) {
	s, err := setupReopen(in)
	if err != nil {
		return nil, err
	}
	s.eng.EnableCache(cachePlanEntries, cacheResultRows)
	s.serve()
	g := newGraphs()
	for _, t := range allTasks() {
		q, err := t.Frame(g).ToSPARQL()
		if err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.eng.Do(context.Background(), sparql.Request{Query: q, Serving: true}); err != nil {
			s.close()
			return nil, fmt.Errorf("cache fill %s: %w", t.ID, err)
		}
	}
	return s, nil
}

// setupRecover is refresh_rw's set-up: reopen the snapshot, replay the
// prepared WAL (crash recovery), attach the log, start the server with
// caches on.
func setupRecover(in *inputs) (*system, error) {
	s, err := setupReopen(in)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if s.wal, s.walPath, err = recoverWAL(in, s.st); err != nil {
		return nil, err
	}
	s.setupLayers["store.wal_replay_s"] = time.Since(start).Seconds()
	s.eng.SetWAL(s.wal)
	s.eng.EnableCache(cachePlanEntries, cacheResultRows)
	s.serve()
	return s, nil
}

// A measured run repeats the set-up at least setupMinReps times, and keeps
// going while the repetitions so far took less than a sixth of the run's
// --seconds (2 s of the committed 12), up to setupMaxReps: a 0.1 s reopen
// needs more repetitions than a 0.9 s cache fill before its median holds
// still.
const (
	setupMinReps     = 5
	setupMaxReps     = 15
	setupBudgetShare = 1.0 / 6
)

// timedSetup runs a workload's set-up repeatedly — once when once is set —
// keeping only the last system, and returns each repetition's wall time.
// The store of one repetition is garbage before the next starts.
func timedSetup(setup func(*inputs) (*system, error), in *inputs, seconds float64, once bool) (*system, []float64, error) {
	var secs []float64
	var total time.Duration
	budget := time.Duration(seconds * setupBudgetShare * float64(time.Second))
	for {
		runtime.GC()
		start := time.Now()
		s, err := setup(in)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		total += d
		secs = append(secs, d.Seconds())
		n := len(secs)
		if once || n == setupMaxReps || (n >= setupMinReps && total >= budget) {
			return s, secs, nil
		}
		s.close()
	}
}
