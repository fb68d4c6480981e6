// Package bench defines the paper's evaluation workloads (§6): the three
// case studies (Figures 3 and 4) and the 15-query synthetic workload
// (Figure 5), each runnable under every approach the paper compares —
// RDFFrames, naive query generation, expert-written SPARQL, navigation +
// dataframes, per-pattern SPARQL + dataframes, and scan (rdflib-style) +
// dataframes. The root Figure benchmarks time them; the tests here check
// that the approaches agree and that every engine configuration returns
// the same bytes.
package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"rdfframes"
	"rdfframes/internal/baselines"
	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/datagen"
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
	Client client.Client // HTTP client against the endpoint, with pagination
	// NTriples holds each graph serialized as N-Triples; the scan baseline
	// parses it on every run, as an ad-hoc rdflib script would.
	NTriples map[string][]byte

	DBpedia *rdfframes.KnowledgeGraph
	DBLP    *rdfframes.KnowledgeGraph
	YAGO    *rdfframes.KnowledgeGraph

	srv *httptest.Server
}

// Close shuts down the environment's HTTP endpoint.
func (e *Env) Close() {
	if e.srv != nil {
		e.srv.Close()
	}
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
	nt := make(map[string][]byte, len(triples))
	// Fixed load order: dictionary-id assignment and the stats epoch must
	// be deterministic so repeated runs (and golden EXPLAIN plans) are
	// reproducible.
	for _, uri := range []string{datagen.DBpediaURI, datagen.DBLPURI, datagen.YAGOURI} {
		if err := st.AddAll(uri, triples[uri]); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, triples[uri]); err != nil {
			return nil, err
		}
		nt[uri] = buf.Bytes()
	}
	eng := sparql.NewEngine(st)
	ts := httptest.NewServer(server.New(eng).Handler())
	httpClient := client.NewHTTPClient(ts.URL+"/sparql", 100000)
	httpClient.HTTP = &http.Client{} // no client timeout; the engine deadline bounds queries
	return &Env{
		Store:    st,
		Engine:   eng,
		Client:   httpClient,
		NTriples: nt,
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
		return baselines.Run(chainOf(frame), &baselines.EngineNav{Client: env.Client, Batch: true})
	case SPARQLPandas:
		return baselines.Run(chainOf(frame), &baselines.EngineNav{Client: env.Client, Batch: false})
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
		return baselines.Run(chainOf(frame), baselines.NewScanNav(parsed))
	}
	return nil, fmt.Errorf("bench: unknown approach %q", a)
}

// chainOf extracts the recorded operator chain from a frame via its query
// model inputs; frames expose it through an internal accessor.
func chainOf(f *rdfframes.RDFFrame) *core.Chain { return rdfframes.ChainOf(f) }

// VerifyTask checks that every approach produces the same bag of rows over
// the RDFFrames result's columns (the paper's "results of all alternatives
// are identical" check). Approaches that legitimately expose extra
// intermediate columns are projected first.
func VerifyTask(env *Env, task *Task, approaches []Approach) error {
	ref, err := task.Run(env, RDFFrames)
	if err != nil {
		return fmt.Errorf("bench %s: reference run failed: %w", task.ID, err)
	}
	for _, a := range approaches {
		if a == RDFFrames {
			continue
		}
		got, err := task.Run(env, a)
		if err != nil {
			return fmt.Errorf("bench %s: %s failed: %w", task.ID, a, err)
		}
		aligned, err := got.Select(ref.Columns()...)
		if err != nil {
			return fmt.Errorf("bench %s: %s result lacks columns %v (has %v)", task.ID, a, ref.Columns(), got.Columns())
		}
		if !dataframe.MultisetEqual(ref, aligned) {
			return fmt.Errorf("bench %s: %s returned %d rows, RDFFrames %d rows (bags differ)",
				task.ID, a, aligned.Len(), ref.Len())
		}
	}
	return nil
}
