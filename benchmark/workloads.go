package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"rdfframes"
	"rdfframes/internal/client"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/sparql"
)

// Op counts and sizes. They are constants, not flags: two runs compare only
// when they did the same work.
const (
	// servePageRows is the LIMIT of one serve_warm page request.
	servePageRows = 500
	// serveFirstPages is how often a pass requests each kind's first page
	// on top of the Zipf draws, so that a kind whose pages are rarely drawn
	// still has enough samples for a median.
	serveFirstPages = 8
	// serveZipfS is the skew of page popularity.
	serveZipfS = 1.1
	// serveMixSeed fixes which (kind, window) pairs are popular and which
	// requests a pass is made of. The run seed orders the requests and
	// deals them to the clients; it does not redraw them, because pages
	// differ tenfold in size and a redrawn head would make two seeds two
	// different workloads.
	serveMixSeed = 20200817
	// refreshFirstBatch keeps the run's batches clear of the ones the
	// prepared WAL inserted and deleted.
	refreshFirstBatch = preparedWALBatches / 2
)

// numClients is the number of client goroutines of a multi-client
// workload: all load comes from this process, so never more than the
// cores it has, and never more than two.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// Extra op kinds beside the 18 task ids.
const (
	kindExport   = "cs1.export"
	kindFeatures = "cs3.features"
	kindInsert   = "insert"
	kindDelete   = "delete"
	kindSweep    = "sweep"
)

// op is one closed-loop operation: the next starts when it returns.
type op struct {
	kind string
	// run performs the real call and returns the size it observed: rows,
	// or bytes for an export.
	run func() (int, error)
	// want is the size a correct system returns. Ops created with
	// wantLearned take it from the warm-up pass; the verify phase then
	// checks the table it belongs to.
	want int
	// traced, when set, is run by a traced run in place of run: it marks
	// the public calls it makes as child spans of tr, and returns the span
	// its layer replays belong under.
	traced func(tr *tracer) (under *tracer, n int, err error)
	// frame, when set, is the frame the op executes (or exports, or
	// featurizes); a traced run replays that call's layers on the ledger.
	frame func() *rdfframes.RDFFrame
	// replay, when set, repeats the op's layer calls as child spans of the
	// op on the system itself; only a traced run calls it.
	replay func(tr *tracer)
}

const wantLearned = -1

// plan is one pass of a workload: a fixed op list per client, and the way
// to read a task's whole table through the workload's own path.
type plan struct {
	clients [][]op
	// http holds each client goroutine's product HTTP client, index-aligned
	// with clients; nil for an embedded workload.
	http []*client.HTTPClient
	// reorder, when set, rearranges the ops for the next pass.
	reorder func()
	// client is set when the ops are the 20 frame calls made through it.
	client rdfframes.Client
	// fetch returns the full table of a task as the workload's clients see
	// it; verify compares it with expert and naive SPARQL.
	fetch func(t *task) (*dataframe.DataFrame, error)
}

func (p *plan) opsPerPass() int {
	n := 0
	for _, c := range p.clients {
		n += len(c)
	}
	return n
}

// workload is one named traffic mix.
type workload struct {
	name  string
	setup func(in *inputs) (*system, error)
	plan  func(s *system, in *inputs, seed int64) (*plan, error)
	// allHits: every measured op must be answered from the result cache.
	allHits bool
	// durable: the run writes, and verify replays its WAL onto the snapshot.
	durable bool
	// probe, when set, times calls below the workload's ops that the ops
	// cannot be split into; only a traced run calls it.
	probe func(in *inputs, out map[string]float64) error
}

var workloads = []workload{
	{name: "frames_paper", setup: setupIngest, plan: func(s *system, _ *inputs, seed int64) (*plan, error) {
		c := s.httpClient(framePageSize)
		p := framesPlan(c, seed)
		p.http = []*client.HTTPClient{c}
		return p, nil
	}, probe: parseProbe},
	{name: "frames_embedded", setup: setupReopen, plan: func(s *system, _ *inputs, seed int64) (*plan, error) {
		// What ConnectStore returns, over the engine whose counters the
		// traced run reads.
		return framesPlan(client.NewDirect(s.eng), seed), nil
	}},
	{name: "serve_warm", setup: setupWarm, plan: servePlan, allHits: true},
	{name: "refresh_rw", setup: setupRecover, plan: refreshPlan, durable: true, probe: writeProbe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// countWriter counts bytes and drops them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// framesPlan is one pass of the paper's 20 frame calls through c. Every pass
// runs them in a new order drawn from seed: a short call that always
// followed the same long one would inherit the collection of that call's
// garbage in every pass, and its median would describe its neighbour.
func framesPlan(c rdfframes.Client, seed int64) *plan {
	g := newGraphs()
	tasks := allTasks()
	var ops []op
	for _, t := range tasks {
		frame := func() *rdfframes.RDFFrame { return t.Frame(g) }
		ops = append(ops, op{kind: t.ID, want: wantLearned, frame: frame, run: func() (int, error) {
			df, err := frame().Execute(c)
			if err != nil {
				return 0, err
			}
			return df.Len(), nil
		}})
	}
	cs1, cs3 := ops[0].frame, ops[2].frame
	ops = append(ops,
		op{kind: kindExport, want: wantLearned, frame: cs1, run: func() (int, error) {
			var w countWriter
			_, err := cs1().ExportCSV(c, &w)
			return w.n, err
		}},
		op{kind: kindFeatures, want: wantLearned, frame: cs3, run: func() (int, error) {
			df, err := cs3().Features(c, "sub", 0)
			if err != nil {
				return 0, err
			}
			return df.Len(), nil
		}})
	rng := rand.New(rand.NewSource(seed))
	reorder := func() { rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] }) }
	reorder()
	return &plan{
		clients: [][]op{ops},
		reorder: reorder,
		client:  c,
		fetch:   func(t *task) (*dataframe.DataFrame, error) { return t.Frame(g).Execute(c) },
	}
}

// pageQuery is query restricted to one page window.
func pageQuery(query string, window int) string {
	return fmt.Sprintf("%s\nLIMIT %d OFFSET %d", query, servePageRows, window*servePageRows)
}

// servePlan is one serve_warm pass: page requests drawn Zipf over every
// (kind, window) pair of the 18 cached results, plus each kind's first page
// serveFirstPages times, in an order drawn from seed, dealt to the clients.
func servePlan(s *system, in *inputs, seed int64) (*plan, error) {
	g := newGraphs()
	tasks := allTasks()
	type page struct {
		kind  string
		query string
		rows  int
	}
	var pages []page
	var firstPages []page
	texts := map[string]string{}
	totals := map[string]int{}
	for _, t := range tasks {
		q, err := t.Frame(g).ToSPARQL()
		if err != nil {
			return nil, err
		}
		resp, err := s.eng.Do(context.Background(), sparql.Request{Query: q, Serving: true})
		if err != nil {
			return nil, err
		}
		if !resp.Info.Hit {
			return nil, fmt.Errorf("serve_warm: %s is not cached after the fill", t.ID)
		}
		texts[t.ID], totals[t.ID] = q, resp.Rows
		for w := 0; w*servePageRows < resp.Rows; w++ {
			rows := resp.Rows - w*servePageRows
			if rows > servePageRows {
				rows = servePageRows
			}
			p := page{t.ID, pageQuery(q, w), rows}
			pages = append(pages, p)
			if w == 0 {
				firstPages = append(firstPages, p)
			}
		}
	}
	mix := rand.New(rand.NewSource(serveMixSeed))
	mix.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	zipf := rand.NewZipf(mix, serveZipfS, 1, uint64(len(pages)-1))
	drawn := make([]page, 0, in.serveOps)
	for i := 0; i < serveFirstPages; i++ {
		drawn = append(drawn, firstPages...)
	}
	for len(drawn) < in.serveOps {
		drawn = append(drawn, pages[zipf.Uint64()])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(drawn), func(i, j int) { drawn[i], drawn[j] = drawn[j], drawn[i] })

	n := numClients()
	p := &plan{clients: make([][]op, n), http: make([]*client.HTTPClient, n)}
	for i := range p.http {
		p.http[i] = s.httpClient(0)
	}
	handler := s.srv.Handler()
	for i, pg := range drawn {
		pg, c := pg, p.http[i%n]
		o := op{kind: pg.kind, want: pg.rows,
			run: func() (int, error) {
				res, err := c.Select(pg.query)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			},
			replay: func(tr *tracer) { replayPageOp(tr, s, handler, c, pg.query) },
		}
		p.clients[i%n] = append(p.clients[i%n], o)
	}
	// A task's table through this workload's path is its pages in order.
	p.fetch = func(t *task) (*dataframe.DataFrame, error) {
		var all *sparql.Results
		for w := 0; w == 0 || w*servePageRows < totals[t.ID]; w++ {
			res, err := p.http[0].Select(pageQuery(texts[t.ID], w))
			if err != nil {
				return nil, err
			}
			if all == nil {
				all = res
			} else {
				all.Rows = append(all.Rows, res.Rows...)
			}
		}
		return rdfframes.ResultsToDataFrame(all), nil
	}
	return p, nil
}

// refreshFrame is the small training frame a refresh cycle re-extracts:
// every freshly labelled movie with its title and country. Each refresh
// triple labels one movie that has exactly one title and one country, so
// the frame has exactly one row per live refresh triple.
func refreshFrame(g *graphs) *rdfframes.RDFFrame {
	return g.dbpedia.Seed("movie", "<"+refreshPredicate+">", "label").
		Expand("movie",
			rdfframes.Out("rdfs:label", "title"),
			rdfframes.Out("dbpp:country", "country"))
}

// refreshCycle is one step of a refresh pass.
type refreshCycle struct {
	kind  string
	batch int // batch inserted or deleted; unused by a sweep
	live  int // batches live after the cycle
}

// refreshOrder is the order of kinds in a refresh pass: 8 inserts, 7
// deletes and the sweep, in the 8:7:1 mix, with one to three batches live at
// every read. It is a constant because the rows a read returns — and so the
// work of a pass — follow from it; a seed that reordered the kinds would
// change what is measured, not only when.
const refreshOrder = "IIIDIDIDIDIDIDDS"

// refreshSchedule resolves refreshOrder into cycles. rng picks which live
// batch each delete removes.
func refreshSchedule(rng *rand.Rand) []refreshCycle {
	var live []int
	next := refreshFirstBatch
	cycles := make([]refreshCycle, 0, len(refreshOrder))
	for _, k := range refreshOrder {
		var c refreshCycle
		switch k {
		case 'I':
			c = refreshCycle{kind: kindInsert, batch: next}
			live = append(live, next)
			next++
		case 'D':
			i := rng.Intn(len(live))
			c = refreshCycle{kind: kindDelete, batch: live[i]}
			live = append(live[:i], live[i+1:]...)
		case 'S':
			c = refreshCycle{kind: kindSweep}
			live = live[:0]
		}
		c.live = len(live)
		cycles = append(cycles, c)
	}
	return cycles
}

// refreshPlan is one refresh_rw pass: each cycle writes one batch through
// the HTTP client, then re-extracts the refresh frame and expects exactly
// the rows of the batches live at that point (read-your-writes).
func refreshPlan(s *system, in *inputs, seed int64) (*plan, error) {
	g := newGraphs()
	c := s.httpClient(framePageSize)
	var ops []op
	for _, cy := range refreshSchedule(rand.New(rand.NewSource(seed))) {
		update := refreshSweep
		if cy.kind != kindSweep {
			update = refreshUpdate(cy.batch, in.movies, cy.kind == kindInsert)
		}
		write := func() error {
			_, err := c.Update(update)
			return err
		}
		read := func() (int, error) {
			df, err := refreshFrame(g).Execute(c)
			if err != nil {
				return 0, err
			}
			return df.Len(), nil
		}
		ops = append(ops, op{kind: cy.kind, want: cy.live * refreshBatchTriples,
			run: func() (int, error) {
				if err := write(); err != nil {
					return 0, err
				}
				return read()
			},
			// Neither half is replaced by a replay: the update changed the
			// store, and the read that follows it is the one that pays for
			// the caches the update invalidated, so the traced run times both
			// where they happen. The read's layers are replayed under it —
			// until the next cycle the store stays as the update left it —
			// and what they do not account for is that price.
			traced: func(tr *tracer) (under *tracer, n int, err error) {
				tr.span(spanUpdate, func() { err = write() })
				if err != nil {
					return tr, 0, err
				}
				under = tr.timed(spanExecute, func() { n, err = read() })
				return under, n, err
			},
			frame: func() *rdfframes.RDFFrame { return refreshFrame(g) },
		})
	}
	return &plan{
		clients: [][]op{ops},
		http:    []*client.HTTPClient{c},
		fetch:   func(t *task) (*dataframe.DataFrame, error) { return t.Frame(g).Execute(c) },
	}, nil
}
