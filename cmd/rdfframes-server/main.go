// Command rdfframes-server serves a SPARQL endpoint over an RDF dataset:
// a binary snapshot reopened from disk, N-Triples files loaded (in
// parallel) from disk, or the built-in synthetic benchmark datasets. It is
// the stand-in for the RDF engine (Virtuoso) in the paper's experimental
// setup.
//
// Usage:
//
//	rdfframes-server -listen :8080 -synthetic small
//	rdfframes-server -listen :8080 -load http://g1=dump1.nt -load http://g2=dump2.nt
//	rdfframes-server -listen :8080 -snapshot data.snap
//	rdfframes-server -load http://g1=dump1.nt -write-snapshot data.snap ...
//	rdfframes-server -maxrows 10000 -timeout 30s ...
//	rdfframes-server -max-inflight 64 -max-cost 1e7 -drain 30s ...
//	rdfframes-server -debug-addr :6060 -slowlog slow.jsonl -slowlog-threshold 100ms ...
//	rdfframes-server -synthetic small -wal updates.wal ...
//
// Observability: /metrics (Prometheus text) and /stats (JSON) render the
// same counters; ?trace=1 on /sparql returns a per-stage trace annex;
// -slowlog records queries over -slowlog-threshold as JSON lines; and
// -debug-addr starts a separate listener with net/http/pprof, /metrics,
// and /stats for operators.
//
// -snapshot opens a store persisted by -write-snapshot (or by datagen
// -snapshot) in milliseconds instead of re-parsing text; combine
// -load with -write-snapshot once to convert a text dataset.
//
// -wal makes SPARQL UPDATE (/v1/update) durable: every committed batch is
// fsync'd to the log before it applies, and at boot the log's committed
// tail is replayed over the loaded dataset — a kill -9 after an
// unsnapshotted update loses nothing. Combining -wal with -write-snapshot
// folds the replayed state into the snapshot and truncates the log.
//
// The server sheds load instead of falling over: -max-inflight bounds
// concurrently evaluating queries and -max-cost sheds queries whose
// planner cost estimate exceeds the budget, both answering 429 with
// Retry-After. On SIGINT/SIGTERM it drains gracefully — new queries get
// 503 + Retry-After while in-flight ones finish (up to -drain) — and
// exits 0 after a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfframes/internal/datagen"
	"rdfframes/internal/obs"
	"rdfframes/internal/server"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		listen    = flag.String("listen", ":8080", "address to serve on")
		synthetic = flag.String("synthetic", "", `generate synthetic datasets instead of loading: "small" or "bench"`)
		snapIn    = flag.String("snapshot", "", "open the store from this snapshot file (fast cold start)")
		snapOut   = flag.String("write-snapshot", "", "after loading, persist the store to this snapshot file")
		maxRows   = flag.Int("maxrows", 0, "cap rows per response (0 = unlimited); clients must paginate past it")
		maxBody   = flag.Int64("maxbody", 0, "cap POST body bytes (0 = 1 MiB default); oversized queries get 413")
		timeout   = flag.Duration("timeout", time.Minute, "per-query evaluation deadline (0 = none)")
		cacheRows = flag.Int64("cache-rows", sparql.DefaultResultCacheRows, "result cache budget in total cached rows (roughly 64 MB at the default); 0 turns the result cache off")
		parallel  = flag.Int("parallel", 0, "intra-query morsel workers per query (0 = GOMAXPROCS, 1 = serial); results are identical at every setting")
		inflight  = flag.Int("max-inflight", 0, "max concurrently evaluating queries (0 = unlimited); excess requests are shed with 429 + Retry-After")
		maxCost   = flag.Float64("max-cost", 0, "per-query planner cost budget in estimated intermediate rows (0 = unlimited); pricier queries are shed with 429")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries on SIGINT/SIGTERM")
		debugAddr = flag.String("debug-addr", "", "separate listener for operator surfaces: net/http/pprof plus /metrics and /stats (empty = off)")
		slowLog   = flag.String("slowlog", "", "append slow queries as JSON lines to this file (- = stderr, empty = off)")
		slowThr   = flag.Duration("slowlog-threshold", 250*time.Millisecond, "latency at or above which a query lands in -slowlog")
		noWCOJ    = flag.Bool("no-wcoj", false, "disable the worst-case-optimal join operator; every BGP runs the binary join pipeline")
		walPath   = flag.String("wal", "", "write-ahead log file for SPARQL UPDATE durability; replayed over the loaded dataset at boot (empty = updates are in-memory only)")
		loads     loadFlags
	)
	flag.Var(&loads, "load", "graphURI=file.nt pair to load (repeatable)")
	flag.Parse()

	st := store.New()
	if *snapIn != "" {
		start := time.Now()
		var err error
		st, err = snapshot.ReadFile(*snapIn)
		if err != nil {
			log.Fatalf("opening snapshot %s: %v", *snapIn, err)
		}
		log.Printf("reopened %d triples from %s in %v", st.Len(), *snapIn, time.Since(start))
	}
	switch *synthetic {
	case "small":
		mustLoadSynthetic(st, datagen.SmallDBpedia(), datagen.SmallDBLP(), datagen.SmallYAGO())
	case "bench":
		mustLoadSynthetic(st, datagen.BenchDBpedia(), datagen.BenchDBLP(), datagen.BenchYAGO())
	case "":
		if len(loads) == 0 && *snapIn == "" {
			fmt.Fprintln(os.Stderr, "nothing to serve: pass -synthetic small|bench, -snapshot file.snap, or -load graph=file.nt")
			os.Exit(2)
		}
	default:
		log.Fatalf("unknown -synthetic value %q", *synthetic)
	}
	for _, spec := range loads {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -load %q, want graphURI=file.nt", spec)
		}
		f, err := os.Open(parts[1])
		if err != nil {
			log.Fatalf("opening %s: %v", parts[1], err)
		}
		start := time.Now()
		var n int
		if strings.HasSuffix(parts[1], ".ttl") || strings.HasSuffix(parts[1], ".turtle") {
			n, err = st.LoadTurtle(parts[0], f)
		} else {
			n, err = st.LoadNTriplesParallel(parts[0], f, 0)
		}
		f.Close()
		if err != nil {
			log.Fatalf("loading %s: %v", parts[1], err)
		}
		log.Printf("loaded %d triples into <%s> in %v", n, parts[0], time.Since(start))
	}
	// The WAL replays after the base dataset (snapshot/synthetic/-load) is in
	// place: committed update batches that postdate the last snapshot land on
	// top, restoring the pre-crash store byte for byte.
	var wal *store.WAL
	if *walPath != "" {
		start := time.Now()
		w, rec, err := store.OpenWAL(*walPath)
		if err != nil {
			log.Fatalf("opening WAL %s: %v", *walPath, err)
		}
		wal = w
		defer wal.Close()
		if rec.Damage != nil {
			log.Printf("WAL %s: damaged tail dropped (%d bytes): %v", *walPath, rec.DroppedBytes, rec.Damage)
		}
		if len(rec.Batches) > 0 {
			changed, err := rec.Replay(st)
			if err != nil {
				log.Fatalf("replaying WAL %s: %v", *walPath, err)
			}
			log.Printf("replayed %d WAL batches (%d triples changed) from %s in %v",
				len(rec.Batches), changed, *walPath, time.Since(start))
		}
	}
	if *snapOut != "" {
		start := time.Now()
		if err := snapshot.WriteFile(*snapOut, st); err != nil {
			log.Fatalf("writing snapshot %s: %v", *snapOut, err)
		}
		log.Printf("persisted %d triples to %s in %v", st.Len(), *snapOut, time.Since(start))
		if wal != nil {
			// The snapshot now covers everything the WAL recorded; truncate it
			// so the next boot does not replay batches twice.
			if err := wal.Reset(); err != nil {
				log.Fatalf("resetting WAL %s after snapshot: %v", *walPath, err)
			}
			log.Printf("reset WAL %s (state persisted in %s)", *walPath, *snapOut)
		}
	}

	eng := sparql.NewEngine(st)
	eng.SetTimeout(*timeout)
	eng.Parallelism = *parallel
	eng.DisableWCOJ = *noWCOJ
	if wal != nil {
		eng.SetWAL(wal)
		log.Printf("updates durable: WAL at %s (seq=%d)", *walPath, wal.Seq())
	}
	eng.EnableCache(sparql.DefaultPlanCacheEntries, *cacheRows)
	log.Printf("caches: %d plan entries, %d result rows", sparql.DefaultPlanCacheEntries, *cacheRows)
	srv := server.New(eng)
	srv.MaxRows = *maxRows
	srv.MaxBodyBytes = *maxBody
	srv.MaxInFlight = *inflight
	srv.MaxQueryCost = *maxCost
	srv.Logger = log.Default()

	// Observability: one registry backs /metrics, the runtime gauges, and
	// the /stats blocks (same atomics, read through at render time).
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	srv.EnableMetrics(reg)
	if *slowLog != "" {
		w := io.Writer(os.Stderr)
		if *slowLog != "-" {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("opening slow-query log %s: %v", *slowLog, err)
			}
			defer f.Close()
			w = f
		}
		srv.SetSlowLog(obs.NewSlowLog(w, *slowThr))
		log.Printf("slow-query log on: %s (threshold %v)", *slowLog, *slowThr)
	}
	if *debugAddr != "" {
		// pprof and the operator read-only surfaces live on their own
		// listener so they can be firewalled separately from query traffic.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", reg.Handler())
		dmux.Handle("/stats", srv.Handler())
		go func() {
			log.Printf("debug listener on %s (pprof, /metrics, /stats)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	for _, uri := range st.GraphURIs() {
		log.Printf("graph <%s>: %d triples", uri, st.Graph(uri).Len())
	}
	log.Printf("SPARQL endpoint on %s/sparql (maxrows=%d, timeout=%v, cache-rows=%d, parallel=%d, max-inflight=%d, max-cost=%g)",
		*listen, *maxRows, *timeout, *cacheRows, *parallel, *inflight, *maxCost)

	// Serve with full connection-lifecycle timeouts (slow-loris protection)
	// until SIGINT/SIGTERM, then drain: refuse new queries with 503 +
	// Retry-After, give in-flight ones up to -drain to finish, exit 0 on a
	// clean shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := server.NewHTTPServer(*listen, srv.Handler(), *timeout)
	if err := srv.Serve(ctx, hs, nil, *drain); err != nil {
		log.Fatal(err)
	}
	log.Print("drained cleanly; goodbye")
}

func mustLoadSynthetic(st *store.Store, dbp datagen.DBpediaConfig, dblp datagen.DBLPConfig, yago datagen.YAGOConfig) {
	if err := st.AddAll(datagen.DBpediaURI, datagen.DBpedia(dbp)); err != nil {
		log.Fatal(err)
	}
	if err := st.AddAll(datagen.DBLPURI, datagen.DBLP(dblp)); err != nil {
		log.Fatal(err)
	}
	if err := st.AddAll(datagen.YAGOURI, datagen.YAGO(yago)); err != nil {
		log.Fatal(err)
	}
}
