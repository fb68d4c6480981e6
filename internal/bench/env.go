// Package bench defines the paper's evaluation workloads (§6) and the
// harness that regenerates every figure: the three case studies
// (Figures 3 and 4) and the 15-query synthetic workload (Figure 5), each
// runnable under every approach the paper compares — RDFFrames, naive query
// generation, expert-written SPARQL, navigation + dataframes,
// per-pattern SPARQL + dataframes, and scan (rdflib-style) + dataframes.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rdfframes"
	"rdfframes/internal/baselines"
	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/datagen"
	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// Env is a fully-populated benchmark environment: the three synthetic
// graphs loaded into one engine, served over a real HTTP SPARQL endpoint
// (matching the paper's setup, where every approach that uses the engine
// pays the serialization cost of the data it moves), plus the serialized
// dumps the rdflib-style baseline parses.
type Env struct {
	Store  *store.Store
	Engine *sparql.Engine
	Client client.Client // HTTP client against Endpoint, with pagination
	// Metrics backs the environment's endpoint: engine and serving-layer
	// instruments accumulate here across every figure, so the harness can
	// snapshot counter movement around each workload.
	Metrics *obs.Registry
	Triples map[string][]rdf.Triple
	// NTriples holds each graph serialized as N-Triples; the scan baseline
	// parses it on every run, as an ad-hoc rdflib script would.
	NTriples map[string][]byte
	Endpoint string

	DBpedia *rdfframes.KnowledgeGraph
	DBLP    *rdfframes.KnowledgeGraph
	YAGO    *rdfframes.KnowledgeGraph

	srv *httptest.Server
	// deadline bounds client-side baseline work during Measure.
	deadline time.Time
}

// Close shuts down the environment's HTTP endpoint.
func (e *Env) Close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

// SnapshotMetrics flattens the environment registry's cumulative series —
// counters, plus histogram _sum/_count — into a name -> value sample.
// Taking one before and one after a figure run yields the counter movement
// that run caused. Gauges are skipped: a delta of an instantaneous value
// (heap size, in-flight queries) is noise, not attribution.
func (e *Env) SnapshotMetrics() MetricsSample {
	if e.Metrics == nil {
		return MetricsSample{}
	}
	return snapshotCounters(e.Metrics)
}

// snapshotCounters flattens a registry's cumulative series into a sample.
func snapshotCounters(reg *obs.Registry) MetricsSample {
	s := MetricsSample{}
	reg.Each(func(name string, typ obs.MetricType, value float64) {
		if typ == obs.TypeCounter {
			s[name] = value
		}
	})
	return s
}

// Scale selects dataset sizes.
type Scale int

// Scales.
const (
	// ScaleSmall is for tests: a few thousand triples per graph.
	ScaleSmall Scale = iota
	// ScaleBench is for benchmark runs: tens of thousands of triples.
	ScaleBench
)

// NewEnv generates the datasets at the given scale and loads them.
func NewEnv(scale Scale) (*Env, error) {
	dbpCfg, dblpCfg, yagoCfg := datagen.SmallDBpedia(), datagen.SmallDBLP(), datagen.SmallYAGO()
	if scale == ScaleBench {
		dbpCfg, dblpCfg, yagoCfg = datagen.BenchDBpedia(), datagen.BenchDBLP(), datagen.BenchYAGO()
	}
	triples := map[string][]rdf.Triple{
		datagen.DBpediaURI: datagen.DBpedia(dbpCfg),
		datagen.DBLPURI:    datagen.DBLP(dblpCfg),
		datagen.YAGOURI:    datagen.YAGO(yagoCfg),
	}
	st := store.New()
	// Fixed load order: dictionary-id assignment and the stats epoch must
	// be deterministic so repeated runs (and golden EXPLAIN plans) are
	// reproducible.
	for _, uri := range []string{datagen.DBpediaURI, datagen.DBLPURI, datagen.YAGOURI} {
		if err := st.AddAll(uri, triples[uri]); err != nil {
			return nil, err
		}
	}
	return newEnv(st, triples)
}

// NewEnvFromStore builds a benchmark environment around an already-loaded
// store — e.g. one reopened from a snapshot or parsed from on-disk dumps —
// deriving the decoded triple slices the client-side baselines need.
func NewEnvFromStore(st *store.Store) (*Env, error) {
	triples := make(map[string][]rdf.Triple, len(st.GraphURIs()))
	for _, uri := range st.GraphURIs() {
		g := st.Graph(uri)
		ts := make([]rdf.Triple, 0, g.Len())
		for _, tr := range g.Triples() {
			ts = append(ts, rdf.Triple{
				S: st.Dict().Decode(tr.S),
				P: st.Dict().Decode(tr.P),
				O: st.Dict().Decode(tr.O),
			})
		}
		triples[uri] = ts
	}
	return newEnv(st, triples)
}

func newEnv(st *store.Store, triples map[string][]rdf.Triple) (*Env, error) {
	nt := make(map[string][]byte, len(triples))
	for uri, ts := range triples {
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, ts); err != nil {
			return nil, err
		}
		nt[uri] = buf.Bytes()
	}
	eng := sparql.NewEngine(st)
	srv := server.New(eng)
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	ts := httptest.NewServer(srv.Handler())
	endpoint := ts.URL + "/sparql"
	httpClient := client.NewHTTPClient(endpoint, 100000)
	httpClient.HTTP = &http.Client{} // no client timeout; the engine deadline bounds queries
	return &Env{
		Store:    st,
		Engine:   eng,
		Client:   httpClient,
		Metrics:  reg,
		Triples:  triples,
		NTriples: nt,
		Endpoint: endpoint,
		srv:      ts,
		DBpedia:  rdfframes.NewKnowledgeGraph(datagen.DBpediaURI, datagen.DBpediaPrefixes()),
		DBLP:     rdfframes.NewKnowledgeGraph(datagen.DBLPURI, datagen.DBLPPrefixes()),
		YAGO:     rdfframes.NewKnowledgeGraph(datagen.YAGOURI, datagen.YAGOPrefixes()),
	}, nil
}

// Approach names one of the compared strategies.
type Approach string

// The compared approaches (paper §6.3.3).
const (
	RDFFrames    Approach = "RDFFrames"
	Naive        Approach = "Naive Query Generation"
	Expert       Approach = "Expert SPARQL"
	NavPandas    Approach = "Navigation + dataframes"
	SPARQLPandas Approach = "SPARQL + dataframes"
	ScanPandas   Approach = "rdflib-style scan + dataframes"
)

// Task is one benchmark workload: a frame builder plus the equivalent
// expert-written SPARQL query.
type Task struct {
	ID     string // "cs1".."cs3", "Q1".."Q15"
	Name   string
	Frame  func(env *Env) *rdfframes.RDFFrame
	Expert func(env *Env) string
	// CheckRows, when non-nil, sanity-checks the result cardinality.
	CheckRows func(n int) error
}

// Run executes the task under the approach and returns the resulting table.
func (t *Task) Run(env *Env, a Approach) (*dataframe.DataFrame, error) {
	frame := t.Frame(env)
	switch a {
	case RDFFrames:
		return frame.Execute(env.Client)
	case Naive:
		query, err := frame.ToNaiveSPARQL()
		if err != nil {
			return nil, err
		}
		return env.Client.Frame(query)
	case Expert:
		return env.Client.Frame(t.Expert(env))
	case NavPandas:
		return baselines.RunUntil(chainOf(frame), &baselines.EngineNav{Client: env.Client, Batch: true}, env.deadline)
	case SPARQLPandas:
		return baselines.RunUntil(chainOf(frame), &baselines.EngineNav{Client: env.Client, Batch: false}, env.deadline)
	case ScanPandas:
		// Parse the serialized dumps on every run, like an ad-hoc script.
		parsed := make(map[string][]rdf.Triple, len(env.NTriples))
		for uri, data := range env.NTriples {
			ts, err := rdf.NewNTriplesReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				return nil, err
			}
			parsed[uri] = ts
		}
		return baselines.RunUntil(chainOf(frame), baselines.NewScanNav(parsed), env.deadline)
	}
	return nil, fmt.Errorf("bench: unknown approach %q", a)
}

// chainOf extracts the recorded operator chain from a frame via its query
// model inputs; frames expose it through an internal accessor.
func chainOf(f *rdfframes.RDFFrame) *core.Chain { return rdfframes.ChainOf(f) }

// Measurement is one timed run.
type Measurement struct {
	Task     string
	Approach Approach
	Duration time.Duration
	Rows     int
	Err      error
}

// ErrWallClock reports a measurement abandoned at the wall-clock deadline
// (client-side baselines do their work outside the engine, so the engine
// deadline cannot stop them).
var ErrWallClock = fmt.Errorf("bench: wall-clock timeout")

// Measure times the task under the approach, enforcing the timeout through
// the engine (mirroring the paper's 30-minute cap, scaled down) plus a
// wall-clock cutoff for work done outside the engine. A run that exceeds
// the wall clock is abandoned AND cancelled: the run's HTTP requests carry
// a context that the cutoff cancels, which aborts the in-flight request
// and — through the server's request context — stops the evaluation and
// its morsel workers within one tick window, instead of letting the
// detached goroutine evaluate to completion and pollute later timings.
func (t *Task) Measure(env *Env, a Approach, timeout time.Duration) Measurement {
	scoped := *env
	env.Engine.SetTimeout(timeout) // shared HTTP endpoint; stragglers may still read it
	scoped.deadline = time.Now().Add(timeout)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if hc, ok := scoped.Client.(*client.HTTPClient); ok {
		scoped.Client = hc.WithContext(ctx)
	}

	done := make(chan Measurement, 1)
	go func() {
		start := time.Now()
		df, err := t.Run(&scoped, a)
		m := Measurement{Task: t.ID, Approach: a, Duration: time.Since(start), Err: err}
		if err == nil {
			m.Rows = df.Len()
			if t.CheckRows != nil {
				m.Err = t.CheckRows(df.Len())
			}
		}
		done <- m
	}()
	select {
	case m := <-done:
		return m
	case <-time.After(timeout + timeout/2):
		cancel() // stop the straggler's requests and their evaluations
		return Measurement{Task: t.ID, Approach: a, Duration: timeout, Err: ErrWallClock}
	}
}
