package sparql

import (
	"slices"

	"rdfframes/internal/store"
)

// Fused BGP pipelines. A BGP segment — its patterns in execution order, the
// group filters the planner pushed down after each, the columns no later
// operator reads — compiles once into a chain of steps, and a morsel of
// the segment's source runs the whole chain: the worker walks the patterns
// depth-first over one scratch row by nesting the store's Match callbacks,
// evaluates each filter after the step the planner placed it at, and
// appends only the rows that survive the last step, already in the output
// layout. No intermediate batch exists: what a segment allocates follows
// its output.
//
// Row order is the serial nested loop's: a morsel is a contiguous range of
// the source (rows of the input batch, or a store.MatchParts slice of the
// first pattern's scan when the input is a single row), a worker emits in
// nested-loop order, and parts concatenate in morsel order. Serial
// execution is the same chain run as one morsel on the query goroutine.
//
// Filters run on the workers. Each is resolved once, at compile time,
// against the scratch layout (evalDict.resolve): variables read scratch
// columns by index, and =, !=, IN and the isIRI family compare ids first,
// decoding only numeric terms. That is safe because evaluation then only
// reads: the evaluator dictionary interns its extra terms (resolve's
// constants among them) on the query goroutine, never while a pipeline
// runs, and the one piece of mutable state, the compiled-regex memo, is
// per worker.

// pipeSlot is one pattern position: a scratch-row column (col >= 0, a
// variable) or a constant id.
type pipeSlot struct {
	col int
	id  store.ID
}

// pipeStep is one pattern of the chain.
type pipeStep struct {
	slots [3]pipeSlot // S, P, O
	// missing: a constant term absent from the dictionary matches nothing.
	missing bool
	// sameSP/sameSO/samePO: repeated-variable positions must agree within
	// one match.
	sameSP, sameSO, samePO bool
	// The filters pushed down after this step are pipeline.filters[f0:f1].
	f0, f1 int
}

// bgpPipeline is one BGP segment compiled against its input batch.
type bgpPipeline struct {
	ev *evaluator
	op *bgpOp
	// graphs is the segment's graph scope (op.graphs, empty for every
	// graph) resolved.
	graphs []*store.Graph
	steps  []pipeStep
	// vars lays out the scratch row: the input columns, then each step's
	// newly bound variables. filters are the segment's pushed-down
	// conditions resolved against it.
	vars    []string
	filters []Expression
	// outVars is the segment's output layout, the scratch layout minus the
	// planned drops; outCols maps it back to scratch columns (nil when
	// nothing is dropped).
	outVars []string
	outCols []int
	// workers[i] is the state of pool goroutine i (ticker.slot), created on
	// its first morsel and touched by no other goroutine while the pool runs.
	workers []*pipeWorker
}

// compilePipeline resolves every step's positions and every pushed-down
// filter against the scratch layout the input batch starts. The planner
// put each filter after the first step at which all its variables are
// final, which is sound because group filters are conjunctive and a row
// never changes a final variable.
func (ev *evaluator) compilePipeline(cur *idRows, op *bgpOp) *bgpPipeline {
	p := &bgpPipeline{
		ev:     ev,
		op:     op,
		graphs: ev.resolveGraphs(op.graphs),
		steps:  make([]pipeStep, len(op.steps)),
		vars:   append(make([]string, 0, len(cur.vars)+2*len(op.steps)), cur.vars...),

		workers: make([]*pipeWorker, max(ev.workers, 1)),
	}
	cols := make(map[string]int, len(cur.vars)+2*len(op.steps))
	for c, v := range cur.vars {
		cols[v] = c
	}
	dict := ev.store.Dict()
	slot := func(st *pipeStep, n Node) pipeSlot {
		if !n.IsVar {
			id, ok := dict.Lookup(n.Term)
			st.missing = st.missing || !ok
			return pipeSlot{col: -1, id: id}
		}
		c, ok := cols[n.Var]
		if !ok {
			c = len(p.vars)
			p.vars = append(p.vars, n.Var)
			cols[n.Var] = c
		}
		return pipeSlot{col: c}
	}
	f0 := 0
	for k, s := range op.steps {
		pat, st := s.pat, &p.steps[k]
		st.slots = [3]pipeSlot{slot(st, pat.S), slot(st, pat.P), slot(st, pat.O)}
		st.sameSP = pat.S.IsVar && pat.P.IsVar && pat.S.Var == pat.P.Var
		st.sameSO = pat.S.IsVar && pat.O.IsVar && pat.S.Var == pat.O.Var
		st.samePO = pat.P.IsVar && pat.O.IsVar && pat.P.Var == pat.O.Var
		st.f0, st.f1, f0 = f0, s.f1, s.f1
	}
	p.filters = make([]Expression, len(op.filters))
	for i, f := range op.filters {
		p.filters[i] = ev.dict.resolve(f.cond, cols)
	}
	p.outVars = p.vars
	if len(op.drop) > 0 {
		p.outVars = make([]string, 0, len(p.vars))
		for c, v := range p.vars {
			if !slices.Contains(op.drop, v) {
				p.outVars = append(p.outVars, v)
				p.outCols = append(p.outCols, c)
			}
		}
	}
	return p
}

// pipePart is one morsel's output: row segments in emission order. The
// segments alias the writer's chunks, which are never rewritten.
type pipePart struct {
	segs [][]store.ID
	n    int
}

// Output chunks start at pipeChunkMin rows and double — a new chunk, not a
// copy — up to morselScan rows, so a small output costs one small
// allocation and a large one about its own size.
const pipeChunkMin = 64

// partWriter collects the rows one goroutine emits while it runs morsels of
// an operator (a pipeline, a join), and lives no longer than that run.
type partWriter struct {
	width int
	// chunk is being filled; its rows from segStart on are the current morsel's.
	chunk    []store.ID
	segStart int
	part     pipePart
}

// next adds a row to the current morsel's part and returns its zeroed cells.
func (w *partWriter) next() []store.ID {
	if len(w.chunk)+w.width > cap(w.chunk) {
		w.seal()
		rows := 2 * cap(w.chunk) / max(w.width, 1)
		rows = min(max(rows, pipeChunkMin), morselScan)
		w.chunk, w.segStart = make([]store.ID, 0, rows*w.width), 0
	}
	n := len(w.chunk)
	w.chunk = w.chunk[:n+w.width]
	w.part.n++
	return w.chunk[n:]
}

// seal closes the current morsel's segment of the chunk being filled.
func (w *partWriter) seal() {
	if n := len(w.chunk); n > w.segStart {
		w.part.segs = append(w.part.segs, w.chunk[w.segStart:n:n])
		w.segStart = n
	}
}

// take seals and hands over the finished morsel's part.
func (w *partWriter) take() pipePart {
	w.seal()
	part := w.part
	w.part = pipePart{}
	return part
}

// pipeWorker is one goroutine's state for running morsels of a pipeline:
// the scratch row, the per-step Match callbacks (built once, so a probe
// allocates nothing), the filter context, the output writer, and the
// EXPLAIN counters.
type pipeWorker struct {
	p     *bgpPipeline
	tk    *ticker
	err   error
	row   []store.ID
	yield []func(store.IDTriple) bool
	ctx   *evalCtx
	// rows[k] counts step k's matches, kept[i] the rows surviving filter i.
	rows, kept []int
	out        partWriter
}

// worker returns the calling pool goroutine's worker, built on its first
// morsel. The query goroutine (tk == &ev.tk) shares the evaluator's regex
// memo; pool goroutines start their own.
func (p *bgpPipeline) worker(tk *ticker) *pipeWorker {
	if w := p.workers[tk.slot]; w != nil {
		return w
	}
	w := &pipeWorker{
		p:     p,
		tk:    tk,
		row:   make([]store.ID, len(p.vars)),
		yield: make([]func(store.IDTriple) bool, len(p.steps)),
		rows:  make([]int, len(p.steps)+len(p.filters)),
		out:   partWriter{width: len(p.outVars)},
	}
	w.kept = w.rows[len(p.steps):]
	for k := range w.yield {
		w.yield[k] = func(t store.IDTriple) bool { return w.match(k, t) }
	}
	if len(p.filters) > 0 {
		w.ctx = &evalCtx{cells: w.row, dict: p.ev.dict}
		if tk == &p.ev.tk {
			w.ctx.cache = p.ev.cache
		}
	}
	p.workers[tk.slot] = w
	return w
}

// runRows runs the chain for input rows [lo, hi).
func (w *pipeWorker) runRows(cur *idRows, lo, hi int) {
	rows := cur.cursor(lo)
	for i := lo; i < hi && w.err == nil; i++ {
		copy(w.row, rows.next())
		w.probe(0)
	}
}

// runScan runs the chain for one slice of the first pattern's scan under
// the single input row.
func (w *pipeWorker) runScan(row []store.ID, scan store.ScanPart) {
	copy(w.row, row)
	st := &w.p.steps[0]
	key := st.key(w.row)
	scan(w.yield[0])
	w.unbind(st, key)
}

// key resolves the step's probe pattern (S, P, O) against the scratch row;
// an unbound cell (0) stays a wildcard.
func (st *pipeStep) key(row []store.ID) (key [3]store.ID) {
	for i := range st.slots {
		key[i] = st.slots[i].id
		if c := st.slots[i].col; c >= 0 {
			key[i] = row[c]
		}
	}
	return key
}

// unbind clears the cells step st bound under probe key, so the next probe
// of the same step sees them as wildcards again.
func (w *pipeWorker) unbind(st *pipeStep, key [3]store.ID) {
	for i := range st.slots {
		if key[i] == 0 {
			w.row[st.slots[i].col] = 0
		}
	}
}

// probe streams step k's matches for the scratch row into match. It
// reports false once the worker has failed.
func (w *pipeWorker) probe(k int) bool {
	st := &w.p.steps[k]
	if st.missing {
		return true
	}
	key := st.key(w.row)
	for _, g := range w.p.graphs {
		g.Match(store.IDTriple{S: key[0], P: key[1], O: key[2]}, w.yield[k])
		if w.err != nil {
			return false
		}
	}
	w.unbind(st, key)
	return true
}

// match binds one match of step k into the scratch row, applies the step's
// filters, and descends; past the last step the row is emitted.
func (w *pipeWorker) match(k int, t store.IDTriple) bool {
	if w.err = w.tk.tick(); w.err != nil {
		return false
	}
	st := &w.p.steps[k]
	if st.sameSP && t.S != t.P || st.sameSO && t.S != t.O || st.samePO && t.P != t.O {
		return true
	}
	if c := st.slots[0].col; c >= 0 {
		w.row[c] = t.S
	}
	if c := st.slots[1].col; c >= 0 {
		w.row[c] = t.P
	}
	if c := st.slots[2].col; c >= 0 {
		w.row[c] = t.O
	}
	w.rows[k]++
	for i := st.f0; i < st.f1; i++ {
		if !evalBool(w.p.filters[i], w.ctx) {
			return true
		}
		w.kept[i]++
	}
	if k+1 < len(w.p.steps) {
		return w.probe(k + 1)
	}
	w.emit()
	return true
}

// emit appends the scratch row, in the output layout, to the morsel's part.
func (w *pipeWorker) emit() {
	dst := w.out.next()
	if w.p.outCols == nil {
		copy(dst, w.row)
		return
	}
	for i, c := range w.p.outCols {
		dst[i] = w.row[c]
	}
}

// runPipeline runs the compiled segment over cur and returns its output.
// One morsel covering every input row, on the query goroutine, is serial
// execution. With the pool on, the source splits into morsels sized so each
// carries about a morsel's worth of the segment's largest estimated
// intermediate: a small source in front of a large fan-out still spreads
// over the workers.
func (ev *evaluator) runPipeline(p *bgpPipeline, cur *idRows) (*idRows, error) {
	bounds := [][2]int{{0, cur.n}}
	var scans []store.ScanPart
	rows := cur.cursor(0)
	first := rows.next() // the input row a partitioned scan runs under
	if ev.workers > 1 {
		peak := 0.0
		for _, e := range p.op.est {
			peak = max(peak, e*float64(cur.n))
		}
		if st := &p.steps[0]; cur.n == 1 && !st.missing {
			row := make([]store.ID, len(p.vars))
			copy(row, first)
			k := st.key(row)
			key := store.IDTriple{S: k[0], P: k[1], O: k[2]}
			if m := scaleMorsel(morselScan, ev.store.Cardinality(p.op.graphs, key), peak); m > 0 {
				scans = ev.store.MatchParts(p.op.graphs, key, m)
			}
		} else if m := scaleMorsel(morselRows, cur.n, peak); m > 0 {
			bounds = rowChunks(cur.n, m)
		}
	}
	n := len(bounds)
	if len(scans) > 1 {
		n = len(scans)
	}
	parts := make([]pipePart, n)
	err := ev.forEachPart(n, func(i int, tk *ticker) error {
		w := p.worker(tk)
		if len(scans) > 1 {
			w.runScan(first, scans[i])
		} else {
			w.runRows(cur, bounds[i][0], bounds[i][1])
		}
		parts[i] = w.out.take()
		return w.err
	})
	if err != nil {
		return nil, err
	}
	return mergePipeParts(p.outVars, parts), nil
}

// scaleMorsel sizes the morsels of a source of n rows whose chain peaks at
// an estimated peak rows: the plain morsel scaled down by the fan-out. It
// returns 0 when the whole segment is under two morsels of work, which is
// not worth scheduling.
func scaleMorsel(morsel, n int, peak float64) int {
	work := max(float64(n), peak)
	if n < 2 || work < float64(2*morsel) {
		return 0
	}
	return max(1, int(float64(morsel)*float64(n)/work))
}

// mergePipeParts lists the morsels' segments strictly in morsel order —
// the order-preserving combiner that makes parallel output identical to the
// serial nested loop's. No row is copied: the batch is the parts' segments.
func mergePipeParts(vars []string, parts []pipePart) *idRows {
	out := newIDRows(vars)
	out.segs = parts[0].segs // there is always a first part, and its list is its own
	for _, p := range parts[1:] {
		out.segs = append(out.segs, p.segs...)
	}
	for _, p := range parts {
		out.n += p.n
	}
	return out
}

// recordActuals sums the workers' counters into the tracked plan: each
// pushed-down filter with its survivors, and each step's node with its
// matches as long as rows reached the step — an operator that never ran
// keeps no actual.
func (p *bgpPipeline) recordActuals(in int) {
	total := make([]int, len(p.steps)+len(p.filters))
	for _, w := range p.workers {
		if w != nil {
			for i, c := range w.rows {
				total[i] += c
			}
		}
	}
	kept := total[len(p.steps):]
	for k, st := range p.steps {
		if in == 0 {
			break
		}
		p.op.steps[k].node.Record(total[k])
		in = total[k]
		if st.f1 > st.f0 {
			in = kept[st.f1-1]
		}
	}
	for i, f := range p.op.filters {
		f.node.Record(kept[i])
	}
}
