// Command datagen writes the synthetic benchmark knowledge graphs as
// N-Triples files — and, optionally, as a single binary snapshot that
// rdfframes-server can reopen without re-parsing — for loading into
// rdfframes-server (or any RDF engine).
//
// Usage:
//
//	datagen -scale small -out ./data
//	datagen -scale bench -out ./data -graphs dbpedia,dblp
//	datagen -scale bench -out ./data -snapshot ./data/bench.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/store"
)

func main() {
	var (
		scale   = flag.String("scale", "small", `dataset scale: "small" or "bench"`)
		out     = flag.String("out", ".", "output directory")
		graphs  = flag.String("graphs", "dbpedia,dblp,yago", "comma-separated graphs to generate")
		snapOut = flag.String("snapshot", "", "also write every generated graph into one snapshot file at this path")
	)
	flag.Parse()

	dbpCfg, dblpCfg, yagoCfg := datagen.SmallDBpedia(), datagen.SmallDBLP(), datagen.SmallYAGO()
	if *scale == "bench" {
		dbpCfg, dblpCfg, yagoCfg = datagen.BenchDBpedia(), datagen.BenchDBLP(), datagen.BenchYAGO()
	} else if *scale != "small" {
		log.Fatalf("unknown scale %q", *scale)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	graphURIs := map[string]string{
		"dbpedia": datagen.DBpediaURI,
		"dblp":    datagen.DBLPURI,
		"yago":    datagen.YAGOURI,
	}
	st := store.New() // populated only when -snapshot is requested
	for _, g := range strings.Split(*graphs, ",") {
		g = strings.TrimSpace(g)
		var triples []rdf.Triple
		switch g {
		case "dbpedia":
			triples = datagen.DBpedia(dbpCfg)
		case "dblp":
			triples = datagen.DBLP(dblpCfg)
		case "yago":
			triples = datagen.YAGO(yagoCfg)
		default:
			log.Fatalf("unknown graph %q", g)
		}
		path := filepath.Join(*out, g+".nt")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteNTriples(f, triples); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d triples to %s\n", len(triples), path)
		if *snapOut != "" {
			if err := st.AddAll(graphURIs[g], triples); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *snapOut != "" {
		if err := snapshot.WriteFile(*snapOut, st); err != nil {
			log.Fatal(err)
		}
		fi, err := os.Stat(*snapOut)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote snapshot of %d triples (%d bytes) to %s\n", st.Len(), fi.Size(), *snapOut)
	}
}
