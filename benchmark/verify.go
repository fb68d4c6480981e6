package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rdfframes"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// goldenPath is where -update-golden writes, relative to the repo root.
const goldenPath = "benchmark/testdata/golden_bench.json"

//go:embed testdata/golden_bench.json
var goldenJSON []byte

// digest identifies a table up to row and column order.
type digest struct {
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

// tableDigest hashes df's rows as a multiset over its sorted column set.
func tableDigest(df *dataframe.DataFrame) digest {
	cols := df.Columns()
	sort.Strings(cols)
	keys := make([]string, df.Len())
	var sb strings.Builder
	for i := range keys {
		sb.Reset()
		for _, c := range cols {
			sb.WriteString(df.Cell(i, c).String())
			sb.WriteByte(0)
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte(strings.Join(cols, "\x00")))
	for _, k := range keys {
		h.Write([]byte{'\n'})
		h.Write([]byte(k))
	}
	return digest{df.Len(), hex.EncodeToString(h.Sum(nil))}
}

func bytesDigest(b []byte) digest {
	sum := sha256.Sum256(b)
	return digest{bytes.Count(b, []byte{'\n'}), hex.EncodeToString(sum[:])}
}

// verdict is what the verify phase found.
type verdict struct {
	failed  int
	digests map[string]digest
	// Per-task Select times on a cache-less engine, filled when timed is
	// set: the paper's Figure 3/5 comparison.
	rdfMs, expertMs, naiveMs map[string]float64
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	logFailure(format, args...)
}

// checkGolden records d as kind's digest and, when golden is set — the run
// is on the committed dataset — requires it to be the committed one.
func (v *verdict) checkGolden(golden map[string]digest, kind string, d digest) {
	v.digests[kind] = d
	if golden == nil {
		return
	}
	if want, ok := golden[kind]; !ok {
		v.fail("verify %s: no golden digest", kind)
	} else if want != d {
		v.fail("verify %s: digest %v, golden %v", kind, d, want)
	}
}

// selectFrame evaluates query on eng and returns the table and the time
// the Select took.
func selectFrame(eng *sparql.Engine, query string) (*dataframe.DataFrame, float64, error) {
	start := time.Now()
	resp, err := eng.Do(context.Background(), sparql.Request{Query: query})
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return nil, 0, err
	}
	return rdfframes.ResultsToDataFrame(resp.Results), ms, nil
}

// verify checks every task's table as the workload's clients see it: equal
// as a multiset to expert SPARQL and to naive generation evaluated on a
// cache-less engine over the same store, equal in size to what the measured
// ops returned, and — on the committed dataset — equal to the golden digest.
// Each mismatch counts as one failed op.
func verify(s *system, p *plan, golden map[string]digest, timed bool) *verdict {
	v := &verdict{
		digests:  map[string]digest{},
		rdfMs:    map[string]float64{},
		expertMs: map[string]float64{},
		naiveMs:  map[string]float64{},
	}
	g := newGraphs()
	eng := sparql.NewEngine(s.st)
	learned := map[string]int{}
	if p.client != nil {
		for _, o := range p.clients[0] {
			learned[o.kind] = o.want
		}
	}
	checkSize := func(kind string, n int) {
		if want, ok := learned[kind]; ok && want != n {
			v.fail("verify %s: measured ops returned size %d, verify read %d", kind, want, n)
		}
	}
	checkGolden := func(kind string, d digest) { v.checkGolden(golden, kind, d) }
	var cs1Rows int
	var cs3 *dataframe.DataFrame
	for _, t := range allTasks() {
		got, err := p.fetch(t)
		if err != nil {
			v.fail("verify %s: %v", t.ID, err)
			continue
		}
		checkSize(t.ID, got.Len())
		if got.Len() == 0 {
			v.fail("verify %s: empty table", t.ID)
		}
		frame := t.Frame(g)
		naive, err := frame.ToNaiveSPARQL()
		if err != nil {
			v.fail("verify %s: naive generation: %v", t.ID, err)
			continue
		}
		for _, other := range []struct {
			approach, query string
			ms              map[string]float64
		}{{"expert", t.Expert, v.expertMs}, {"naive", naive, v.naiveMs}} {
			want, ms, err := selectFrame(eng, other.query)
			if err != nil {
				v.fail("verify %s: %s SPARQL: %v", t.ID, other.approach, err)
				continue
			}
			other.ms[t.ID] = ms
			if !dataframe.MultisetEqual(got, want) {
				v.fail("verify %s: table differs from %s SPARQL (%d vs %d rows)", t.ID, other.approach, got.Len(), want.Len())
			}
		}
		if timed {
			query, err := frame.ToSPARQL()
			if err == nil {
				_, v.rdfMs[t.ID], err = selectFrame(eng, query)
			}
			if err != nil {
				v.fail("verify %s: timing generated SPARQL: %v", t.ID, err)
			}
		}
		checkGolden(t.ID, tableDigest(got))
		switch t.ID {
		case "cs1":
			cs1Rows = got.Len()
		case "cs3":
			cs3 = got
		}
	}
	if p.client != nil {
		v.verifyExtras(p.client, g, cs1Rows, cs3, checkSize, checkGolden)
	}
	return v
}

// verifyExtras checks the export and the feature matrix of the frames
// workloads against the tables they derive from.
func (v *verdict) verifyExtras(c rdfframes.Client, g *graphs, cs1Rows int, cs3 *dataframe.DataFrame,
	checkSize func(string, int), checkGolden func(string, digest)) {
	tasks := allTasks()
	var csv bytes.Buffer
	if _, err := tasks[0].Frame(g).ExportCSV(c, &csv); err != nil {
		v.fail("verify %s: %v", kindExport, err)
	} else {
		d := bytesDigest(csv.Bytes())
		checkSize(kindExport, csv.Len())
		if d.Rows != cs1Rows+1 {
			v.fail("verify %s: %d lines, want header + %d rows", kindExport, d.Rows, cs1Rows)
		}
		checkGolden(kindExport, d)
	}
	feats, err := tasks[2].Frame(g).Features(c, "sub", 0)
	if err != nil {
		v.fail("verify %s: %v", kindFeatures, err)
		return
	}
	checkSize(kindFeatures, feats.Len())
	if cs3 != nil {
		nodes := map[string]bool{}
		for _, t := range cs3.Column("sub") {
			nodes[t.String()] = true
		}
		if feats.Len() != len(nodes) {
			v.fail("verify %s: %d rows, want one per distinct node (%d)", kindFeatures, feats.Len(), len(nodes))
		}
	}
	checkGolden(kindFeatures, tableDigest(feats))
}

// storeDigests hashes the 18 task tables and the refresh frame evaluated
// directly on st.
func storeDigests(st *store.Store) (map[string]digest, error) {
	g := newGraphs()
	eng := sparql.NewEngine(st)
	out := map[string]digest{}
	frames := map[string]*rdfframes.RDFFrame{"refresh": refreshFrame(g)}
	for _, t := range allTasks() {
		frames[t.ID] = t.Frame(g)
	}
	for id, f := range frames {
		q, err := f.ToSPARQL()
		if err != nil {
			return nil, err
		}
		df, _, err := selectFrame(eng, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out[id] = tableDigest(df)
	}
	return out, nil
}

// verifyDurability is refresh_rw's crash check. The live store is dropped;
// the prepared snapshot is reopened and only the run's WAL file is replayed
// onto it. Every acknowledged batch was fsync'd before it was applied, so
// the recovered store must answer the 18 tasks and the refresh frame
// exactly as the live store did. (The reopen reads through the operating
// system's cache; what this proves is that the log alone carries the state,
// not that the device kept it.) It returns the failures found.
func verifyDurability(in *inputs, live map[string]digest, walPath string) int {
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		logFailure("durability: "+format, args...)
	}
	st, err := snapshot.ReadFile(in.snap)
	if err != nil {
		fail("%v", err)
		return failed
	}
	wal, rec, err := store.OpenWAL(walPath)
	if err != nil {
		fail("%v", err)
		return failed
	}
	defer wal.Close()
	if rec.Damage != nil {
		fail("run WAL damaged: %v", rec.Damage)
	}
	if _, err := rec.Replay(st); err != nil {
		fail("replay: %v", err)
		return failed
	}
	recovered, err := storeDigests(st)
	if err != nil {
		fail("%v", err)
		return failed
	}
	for id, want := range live {
		if recovered[id] != want {
			fail("%s: recovered %v, live %v", id, recovered[id], want)
		}
	}
	if recovered["refresh"].Rows != refreshBatchTriples {
		fail("refresh frame has %d rows after recovery, want the %d of the last acknowledged batch", recovered["refresh"].Rows, refreshBatchTriples)
	}
	return failed
}

// loadGolden returns the committed digests, which describe the bench scale
// with unshifted generator seeds; other datasets have none.
func loadGolden(scale string, dataSeed int64) (map[string]digest, error) {
	if scale != "bench" || dataSeed != 0 {
		return nil, nil
	}
	var g map[string]digest
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}
