package rdfframes_test

import (
	"fmt"
	"log"

	"rdfframes"
	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// exampleClient builds a tiny in-process knowledge graph for the examples.
func exampleClient() rdfframes.Client {
	st := store.New()
	p := rdf.NewPrefixMap(datagen.DBpediaPrefixes())
	add := func(s, pred, o string) {
		st.Add("http://dbpedia.org", rdf.Triple{
			S: rdf.NewIRI(p.MustExpand(s)),
			P: rdf.NewIRI(p.MustExpand(pred)),
			O: rdf.NewIRI(p.MustExpand(o)),
		})
	}
	add("dbpr:Inception", "dbpp:starring", "dbpr:DiCaprio")
	add("dbpr:Titanic", "dbpp:starring", "dbpr:DiCaprio")
	add("dbpr:Amelie", "dbpp:starring", "dbpr:Tautou")
	add("dbpr:DiCaprio", "dbpp:birthPlace", "dbpr:United_States")
	add("dbpr:Tautou", "dbpp:birthPlace", "dbpr:France")
	return rdfframes.ConnectStore(st)
}

func exampleGraph() *rdfframes.KnowledgeGraph {
	return rdfframes.NewKnowledgeGraph("http://dbpedia.org", datagen.DBpediaPrefixes())
}

// A frame is a lazy description: ToSPARQL shows the single query the
// recorded operators compile to.
func ExampleRDFFrame_ToSPARQL() {
	graph := exampleGraph()
	frame := graph.FeatureDomainRange("dbpp:starring", "movie", "actor").
		GroupBy("actor").CountDistinct("movie", "n").
		Filter(rdfframes.Conds{"n": {">=2"}})
	query, err := frame.ToSPARQL()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(query)
	// Output:
	// SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?n)
	// FROM <http://dbpedia.org>
	// WHERE {
	//   ?movie <http://dbpedia.org/property/starring> ?actor .
	// }
	// GROUP BY ?actor
	// HAVING ( COUNT(DISTINCT ?movie) >= "2"^^<http://www.w3.org/2001/XMLSchema#integer> )
}

// Execute runs the compiled query and returns a DataFrame.
func ExampleRDFFrame_Execute() {
	frame := exampleGraph().
		FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("actor", rdfframes.Out("dbpp:birthPlace", "country")).
		Filter(rdfframes.Conds{"country": {"=dbpr:United_States"}}).
		Sort(rdfframes.Asc("movie"))
	df, err := frame.Execute(exampleClient())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < df.Len(); i++ {
		fmt.Println(df.Cell(i, "movie").Value)
	}
	// Output:
	// http://dbpedia.org/resource/Inception
	// http://dbpedia.org/resource/Titanic
}

// Frames branch freely: one shared prefix feeds a filter branch and a
// grouped branch, joined back together.
func ExampleRDFFrame_Join() {
	graph := exampleGraph()
	movies := graph.FeatureDomainRange("dbpp:starring", "movie", "actor").Cache()
	american := movies.
		Expand("actor", rdfframes.Out("dbpp:birthPlace", "country")).
		Filter(rdfframes.Conds{"country": {"=dbpr:United_States"}})
	counts := movies.GroupBy("actor").CountDistinct("movie", "n")
	df, err := american.Join(counts, "actor", rdfframes.InnerJoin).
		SelectCols("actor", "n").
		Execute(exampleClient())
	if err != nil {
		log.Fatal(err)
	}
	distinct := df.Distinct()
	for i := 0; i < distinct.Len(); i++ {
		n, _ := distinct.Cell(i, "n").AsInt()
		fmt.Printf("%s stars in %d movies\n", distinct.Cell(i, "actor").Value, n)
	}
	// Output:
	// http://dbpedia.org/resource/DiCaprio stars in 2 movies
}

// Exploration operators summarize an unfamiliar graph.
func ExampleKnowledgeGraph_PredicateDistribution() {
	df, err := exampleGraph().PredicateDistribution("pred", "uses").
		Execute(exampleClient())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < df.Len(); i++ {
		n, _ := df.Cell(i, "uses").AsInt()
		fmt.Printf("%s: %d\n", df.Cell(i, "pred").Value, n)
	}
	// Output:
	// http://dbpedia.org/property/starring: 3
	// http://dbpedia.org/property/birthPlace: 2
}
