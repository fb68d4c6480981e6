// Package rdfframes is a Go implementation of RDFFrames ("RDFFrames:
// Knowledge Graph Access for Machine Learning Tools", VLDB 2020): an
// imperative, navigational API for extracting tabular datasets from RDF
// knowledge graphs.
//
// A user builds an RDFFrame through a sequence of method calls — seed the
// frame from a triple pattern, expand it by graph navigation, then filter,
// group, aggregate, join, sort, and slice it with familiar relational
// operators. The calls are recorded lazily; nothing touches the database
// until Execute (or ToSPARQL). At that point the recorded operators are
// compiled into a single optimized SPARQL query, pushed to an RDF engine or
// SPARQL endpoint, and the result is returned as a DataFrame.
//
//	graph := rdfframes.NewKnowledgeGraph("http://dbpedia.org", map[string]string{
//		"dbpp": "http://dbpedia.org/property/",
//		"dbpr": "http://dbpedia.org/resource/",
//	})
//	movies := graph.FeatureDomainRange("dbpp:starring", "movie", "actor")
//	american := movies.
//		Expand("actor", rdfframes.Out("dbpp:birthPlace", "country")).
//		Filter(rdfframes.Conds{"country": {"=dbpr:United_States"}})
//	prolific := american.GroupBy("actor").Count("movie", "movie_count").
//		Filter(rdfframes.Conds{"movie_count": {">=50"}})
//	result := prolific.Expand("actor",
//		rdfframes.In("dbpp:starring", "movie"),
//		rdfframes.Out("dbpp:academyAward", "award").Opt())
//	df, err := result.Execute(client)
package rdfframes

import (
	"io"
	"strings"

	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// DataFrame is the tabular result type returned by Execute.
type DataFrame = dataframe.DataFrame

// Client executes SPARQL queries; see ConnectHTTP and ConnectStore.
type Client = client.Client

// Exporter is the streaming-export side of a client: Export writes a
// query's full result into w as CSV without materializing it on either
// end. Both ConnectHTTP and ConnectStore clients implement it.
type Exporter interface {
	Export(query string, w io.Writer) (int64, error)
}

// Featurizer is the topology-features side of a client: Features returns
// per-node in/out degree and bounded 2-hop neighborhood counts for the
// distinct nodes a query selects, computed store-side without decoding.
// Both ConnectHTTP and ConnectStore clients implement it.
type Featurizer interface {
	Features(query, nodeVar string, hopCap int) (*sparql.Results, error)
}

// JoinType selects join semantics for Join and JoinOn.
type JoinType = core.JoinType

// Join types.
const (
	InnerJoin      = core.InnerJoin
	LeftOuterJoin  = core.LeftOuterJoin
	RightOuterJoin = core.RightOuterJoin
	FullOuterJoin  = core.FullOuterJoin
)

// ConnectHTTP returns a client for a remote SPARQL endpoint, retrieving
// results transparently in pages of pageSize rows (0 disables pagination).
func ConnectHTTP(endpoint string, pageSize int) Client {
	return client.NewHTTPClient(endpoint, pageSize)
}

// ConnectStore returns an in-process client over a local triple store.
func ConnectStore(st *store.Store) Client {
	return client.NewDirect(sparql.NewEngine(st))
}

// KnowledgeGraph identifies an RDF graph by URI and carries the prefix
// bindings used to abbreviate IRIs in API calls.
type KnowledgeGraph struct {
	uri      string
	prefixes *rdf.PrefixMap
}

// NewKnowledgeGraph returns a handle on the graph with the given URI. The
// prefixes map extends the common RDF prefixes (rdf, rdfs, xsd, owl).
func NewKnowledgeGraph(graphURI string, prefixes map[string]string) *KnowledgeGraph {
	pm := rdf.CommonPrefixes()
	pm.Merge(rdf.NewPrefixMap(prefixes))
	return &KnowledgeGraph{uri: graphURI, prefixes: pm}
}

// URI returns the graph URI.
func (g *KnowledgeGraph) URI() string { return g.uri }

// Prefixes returns a copy of the graph's prefix map.
func (g *KnowledgeGraph) Prefixes() *rdf.PrefixMap { return g.prefixes.Clone() }

// Seed starts a frame from a triple pattern — the paper's seed operator.
// Each argument is either a column name (plain identifier) or a term
// (prefixed name, full IRI, or quoted literal).
func (g *KnowledgeGraph) Seed(sub, pred, obj string) *RDFFrame {
	f := &RDFFrame{graph: g}
	s, err := g.patternNode(sub)
	if err != nil {
		return f.fail(err)
	}
	p, err := g.patternNode(pred)
	if err != nil {
		return f.fail(err)
	}
	o, err := g.patternNode(obj)
	if err != nil {
		return f.fail(err)
	}
	f.op = core.SeedOp{GraphURI: g.uri, S: s, P: p, O: o}
	return f
}

// FeatureDomainRange starts a frame with all (domain, range) pairs of
// entities connected by the given predicate — the seed variant used
// throughout the paper (e.g. all movies and the actors starring in them).
func (g *KnowledgeGraph) FeatureDomainRange(pred, domainCol, rangeCol string) *RDFFrame {
	return g.Seed(domainCol, pred, rangeCol)
}

// Entities starts a frame with all instances of the given RDF class.
func (g *KnowledgeGraph) Entities(class, col string) *RDFFrame {
	return g.Seed(col, "rdf:type", class)
}

// Classes is a data exploration operator: a frame of the graph's entity
// classes with their instance counts, largest classes first.
func (g *KnowledgeGraph) Classes(classCol, countCol string) *RDFFrame {
	return g.Seed("instance_", "rdf:type", classCol).
		GroupBy(classCol).Count("instance_", countCol).
		Sort(Desc(countCol))
}

// PredicateDistribution is a data exploration operator: a frame of the
// graph's predicates with their usage counts, most used first.
func (g *KnowledgeGraph) PredicateDistribution(predCol, countCol string) *RDFFrame {
	return g.Seed("subject_", predCol, "object_").
		GroupBy(predCol).Count("subject_", countCol).
		Sort(Desc(countCol))
}

// SearchLabels is a keyword exploration operator (the paper's §7 future
// work): a frame of entities whose rdfs:label matches the keyword,
// case-insensitively.
func (g *KnowledgeGraph) SearchLabels(keyword, entityCol, labelCol string) *RDFFrame {
	label := sparql.ExCall{Name: "str", Args: []sparql.Expression{sparql.ExVar{Name: labelCol}}}
	pattern, flags := sparql.ExTerm{Term: rdf.NewLiteral(keyword)}, sparql.ExTerm{Term: rdf.NewLiteral("i")}
	match := sparql.ExCall{Name: "regex", Args: []sparql.Expression{label, pattern, flags}}
	return g.Seed(entityCol, "rdfs:label", labelCol).
		with(core.FilterOp{Conds: []core.Condition{{Col: labelCol, Expr: match}}})
}

// patternNode interprets an API string as a column or a constant term.
// Strings containing ':' (prefixed names or IRIs) and quoted strings are
// terms; plain identifiers are columns.
func (g *KnowledgeGraph) patternNode(s string) (sparql.Node, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, `"`) {
		t, err := rdf.ParseTerm(s)
		if err != nil {
			return sparql.Node{}, err
		}
		return sparql.TermNode(t), nil
	}
	if strings.Contains(s, ":") {
		iri, err := g.expandIRI("seed", s)
		if err != nil {
			return sparql.Node{}, err
		}
		return sparql.TermNode(rdf.NewIRI(iri)), nil
	}
	if !core.ValidColumn(s) {
		return sparql.Node{}, &FrameError{Op: "seed", Msg: "invalid column name " + s}
	}
	return sparql.Variable(s), nil
}
