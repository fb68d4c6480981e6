package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/store"
)

// graphURIs fixes the order graphs are generated, dumped and loaded in, so
// dictionary ids and the stats epoch repeat from run to run.
var graphURIs = []string{datagen.DBpediaURI, datagen.DBLPURI, datagen.YAGOURI}

// Refresh batches: the write unit of refresh_rw and of the prepared WAL.
const (
	refreshBatchTriples = 64
	refreshPredicate    = "http://bench.rdfframes/refresh/label"
	// preparedWALBatches is the recovery work set-up replays: half inserts,
	// then the deletes that undo them, so the recovered store holds the base
	// data plus tombstones.
	preparedWALBatches = 64
)

// dataScale is the dataset size every run of one scale shares, and the
// length of a serve_warm pass, which follows from the number of pages the
// results have.
type dataScale struct {
	name     string
	dbpedia  datagen.DBpediaConfig
	dblp     datagen.DBLPConfig
	yago     datagen.YAGOConfig
	serveOps int // page requests in one serve_warm pass
}

// scaleOf resolves a scale name. dataSeed offsets the three generator
// seeds; 0 is the committed dataset the golden digests describe.
func scaleOf(name string, dataSeed int64) (dataScale, error) {
	var s dataScale
	switch name {
	case "bench":
		s = dataScale{name, datagen.BenchDBpedia(), datagen.BenchDBLP(), datagen.BenchYAGO(), 1200}
	case "small":
		s = dataScale{name, datagen.SmallDBpedia(), datagen.SmallDBLP(), datagen.SmallYAGO(), 200}
	default:
		return s, fmt.Errorf("unknown scale %q (bench or small)", name)
	}
	s.dbpedia.Seed += dataSeed
	s.dblp.Seed += dataSeed
	s.yago.Seed += dataSeed
	return s, nil
}

// inputs are the files one run works from, all inside its work directory.
type inputs struct {
	dir     string
	dumps   []string // one N-Triples file per graph, in graphURIs order
	snap    string   // snapshot of the three graphs
	wal     string   // prepared WAL of preparedWALBatches refresh batches
	triples int
	movies  int // subjects refresh batches may label
	// serveOps is the number of page requests in one serve_warm pass.
	serveOps int

	// Measured while preparing; reported by the traced run.
	ntBytes        int64
	snapshotBytes  int64
	snapshotWriteS float64
}

// prepare generates the datasets and writes the dumps, the snapshot and the
// prepared WAL into dir. It is untimed: no metric covers it except the
// snapshot write it clocks for the layer ledger.
func prepare(dir string, sc dataScale) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, movies: sc.dbpedia.Movies, serveOps: sc.serveOps}
	graphs := [][]rdf.Triple{datagen.DBpedia(sc.dbpedia), datagen.DBLP(sc.dblp), datagen.YAGO(sc.yago)}
	st := store.New()
	for i, uri := range graphURIs {
		path := filepath.Join(dir, fmt.Sprintf("graph%d.nt", i))
		n, err := writeDump(path, graphs[i])
		if err != nil {
			return nil, err
		}
		in.dumps = append(in.dumps, path)
		in.ntBytes += n
		if err := st.AddAll(uri, graphs[i]); err != nil {
			return nil, err
		}
	}
	in.triples = st.Len()

	in.snap = filepath.Join(dir, "base.snap")
	start := time.Now()
	if err := snapshot.WriteFile(in.snap, st); err != nil {
		return nil, err
	}
	in.snapshotWriteS = time.Since(start).Seconds()
	info, err := os.Stat(in.snap)
	if err != nil {
		return nil, err
	}
	in.snapshotBytes = info.Size()

	in.wal = filepath.Join(dir, "prepared.wal")
	if err := writePreparedWAL(in.wal, in.movies); err != nil {
		return nil, err
	}
	return in, nil
}

func writeDump(path string, triples []rdf.Triple) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := rdf.WriteNTriples(f, triples); err != nil {
		f.Close()
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return info.Size(), f.Close()
}

func writePreparedWAL(path string, movies int) error {
	wal, rec, err := store.OpenWAL(path)
	if err != nil {
		return err
	}
	if len(rec.Batches) > 0 {
		wal.Close()
		return fmt.Errorf("prepared WAL %s is not fresh", path)
	}
	half := preparedWALBatches / 2
	for i := 0; i < preparedWALBatches; i++ {
		ops := refreshOps(i%half, movies, i < half)
		if _, err := wal.Append("", ops); err != nil {
			wal.Close()
			return err
		}
	}
	return wal.Close()
}

// refreshTriples is refresh batch b: one fresh label per movie for
// refreshBatchTriples consecutive movies, alternating IRI and literal
// objects so both term shapes cross the update parser and the WAL codec.
func refreshTriples(b, movies int) []rdf.Triple {
	out := make([]rdf.Triple, refreshBatchTriples)
	pred := rdf.NewIRI(refreshPredicate)
	for i := range out {
		n := b*refreshBatchTriples + i
		obj := rdf.NewLiteral(fmt.Sprintf("label %d", n))
		if i%2 == 0 {
			obj = rdf.NewIRI(fmt.Sprintf("http://bench.rdfframes/refresh/tag%d", n))
		}
		out[i] = rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://dbpedia.org/resource/movie%d", n%movies)),
			P: pred,
			O: obj,
		}
	}
	return out
}

// refreshOps is refresh batch b as ground store operations.
func refreshOps(b, movies int, insert bool) []store.UpdateOp {
	ts := refreshTriples(b, movies)
	ops := make([]store.UpdateOp, len(ts))
	for i, t := range ts {
		ops[i] = store.UpdateOp{Insert: insert, Graph: datagen.DBpediaURI, Triple: t}
	}
	return ops
}

// refreshUpdate is refresh batch b as a SPARQL UPDATE request.
func refreshUpdate(b, movies int, insert bool) string {
	var sb strings.Builder
	if insert {
		sb.WriteString("INSERT DATA")
	} else {
		sb.WriteString("DELETE DATA")
	}
	sb.WriteString(" { GRAPH <" + datagen.DBpediaURI + "> {")
	for _, t := range refreshTriples(b, movies) {
		sb.WriteByte(' ')
		sb.WriteString(t.String())
	}
	sb.WriteString(" } }")
	return sb.String()
}

// refreshSweep deletes every refresh label still live.
const refreshSweep = "DELETE WHERE { GRAPH <" + datagen.DBpediaURI + "> { ?s <" + refreshPredicate + "> ?o } }"
