package sparql

import (
	"context"
	"fmt"
	"sync"

	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Update evaluation: the write-side sibling of Engine.Do. An update request
// is parsed, resolved to a flat batch of ground store ops (DELETE WHERE
// evaluates its pattern through the normal read path), logged to the WAL
// (fsync'd) when one is attached, and applied to the store as one atomic
// batch — readers see the whole request or none of it, and the store
// version moves once past the batch so the result cache invalidates
// exactly.

// UpdateResult reports what an update request changed.
type UpdateResult struct {
	// Inserted / Deleted count triples actually changed (duplicate inserts
	// and absent deletes are no-ops).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Version is the store version after the request.
	Version uint64 `json:"store_version"`
	// Seq is the WAL sequence number of the committed batch (0 without a
	// WAL, or when the request resolved to no ops).
	Seq uint64 `json:"seq,omitempty"`
	// Deduped reports that the request's idempotency token was already
	// committed — the batch was applied by an earlier request and this call
	// changed nothing. The client retry path relies on this.
	Deduped bool `json:"deduped,omitempty"`
}

// updateState is the engine's write-side state, attached lazily so
// read-only engines pay nothing.
type updateState struct {
	// mu serializes update requests end to end: resolve, WAL append, apply.
	// Readers are unaffected (they synchronize via the store's RWMutex).
	mu sync.Mutex
	// wal, when set, makes every batch durable before it is applied.
	wal *store.WAL
	// seen deduplicates idempotency tokens when no WAL is attached (the WAL
	// keeps its own token index, rebuilt on recovery).
	seen map[string]uint64
	// seq numbers batches when no WAL is attached, for parity of the
	// UpdateResult surface.
	seq uint64
}

// SetWAL attaches a write-ahead log: every subsequent update batch is
// appended and fsync'd before it is applied. Call before serving traffic.
// The engine takes ownership of the log's write side (Append/Reset must not
// be called elsewhere concurrently).
func (e *Engine) SetWAL(w *store.WAL) { e.update.wal = w }

// WAL returns the attached write-ahead log, or nil.
func (e *Engine) WAL() *store.WAL { return e.update.wal }

// Update parses and applies a SPARQL UPDATE request atomically. token, when
// non-empty, is an idempotency token: a request whose token was already
// committed returns Deduped=true without re-applying (retried writes are
// therefore safe exactly when the token is reused). Update requests
// serialize against each other; concurrent queries run against either the
// pre- or post-batch state, never a torn middle.
func (e *Engine) Update(ctx context.Context, src, token string) (*UpdateResult, error) {
	req, err := ParseUpdate(src)
	if err != nil {
		return nil, err
	}
	u := &e.update
	u.mu.Lock()
	defer u.mu.Unlock()

	if token != "" {
		if seq, ok := u.tokenSeen(token); ok {
			return &UpdateResult{Version: e.Store.Version(), Seq: seq, Deduped: true}, nil
		}
	}

	ops, err := e.resolveOps(ctx, req)
	if err != nil {
		return nil, err
	}
	res := &UpdateResult{Version: e.Store.Version()}
	if len(ops) == 0 {
		return res, nil
	}
	// Validate before the WAL append: a batch must never be committed to
	// the log and then fail to apply.
	for i, op := range ops {
		if !op.Triple.Valid() {
			return nil, fmt.Errorf("sparql: update op %d resolves to invalid triple %s", i, op.Triple)
		}
	}
	if u.wal != nil {
		seq, err := u.wal.Append(token, ops)
		if err != nil {
			return nil, fmt.Errorf("sparql: update not applied: %w", err)
		}
		res.Seq = seq
	} else {
		u.seq++
		res.Seq = u.seq
		if token != "" {
			if u.seen == nil {
				u.seen = make(map[string]uint64)
			}
			u.seen[token] = res.Seq
		}
	}
	graphs := len(e.Store.GraphURIs())
	applied, err := e.Store.ApplyBatch(ops)
	if e.metricsReg != nil && len(e.Store.GraphURIs()) != graphs {
		e.registerGraphMetrics()
	}
	if err != nil {
		// Unreachable given the pre-validation above; surface loudly if it
		// ever happens, because the WAL now holds a batch the store rejected.
		return nil, fmt.Errorf("sparql: batch %d logged but failed to apply: %w", res.Seq, err)
	}
	res.Inserted = applied.Inserted
	res.Deleted = applied.Deleted
	res.Version = applied.Version
	return res, nil
}

// tokenSeen consults the WAL's token index when a WAL is attached, the
// in-engine map otherwise.
func (u *updateState) tokenSeen(token string) (uint64, bool) {
	if u.wal != nil {
		return u.wal.Seen(token)
	}
	seq, ok := u.seen[token]
	return seq, ok
}

// resolveOps flattens a parsed request into ground store ops, evaluating
// DELETE WHERE patterns through the normal read path. Every operation
// resolves against the store state at the start of the request; the whole
// request then commits as one batch. (SPARQL's sequential-operation
// semantics differ when a later operation reads an earlier one's writes;
// such requests should be issued as separate updates.)
func (e *Engine) resolveOps(ctx context.Context, req *UpdateRequest) ([]store.UpdateOp, error) {
	var ops []store.UpdateOp
	for _, op := range req.Operations {
		switch op.Kind {
		case InsertData:
			for _, q := range op.Quads {
				graph := q.Graph
				if graph == "" {
					g, err := e.defaultInsertGraph()
					if err != nil {
						return nil, err
					}
					graph = g
				}
				ops = append(ops, store.UpdateOp{Insert: true, Graph: graph, Triple: q.Triple})
			}
		case DeleteData:
			for _, q := range op.Quads {
				if q.Graph != "" {
					ops = append(ops, store.UpdateOp{Graph: q.Graph, Triple: q.Triple})
					continue
				}
				// Un-GRAPH'd deletes target the default graph set: the
				// triple goes away wherever it is visible to default-graph
				// queries. Deletes of absent triples are no-ops.
				for _, g := range e.defaultGraphSet() {
					ops = append(ops, store.UpdateOp{Graph: g, Triple: q.Triple})
				}
			}
		case DeleteWhere:
			resolved, err := e.resolveDeleteWhere(ctx, op)
			if err != nil {
				return nil, err
			}
			ops = append(ops, resolved...)
		default:
			return nil, fmt.Errorf("sparql: unsupported update operation %v", op.Kind)
		}
	}
	return ops, nil
}

// resolveDeleteWhere evaluates the pattern and instantiates the template
// once per solution, deduplicating the resulting ground deletes.
func (e *Engine) resolveDeleteWhere(ctx context.Context, op *UpdateOperation) ([]store.UpdateOp, error) {
	q := &Query{Star: true, Where: op.Where, Limit: -1}
	qp := e.buildPlan(q, false, !e.DisableReorder)
	res, _, err := e.evaluate(ctx, obs.TraceFrom(ctx), "", q, qp)
	if err != nil {
		return nil, fmt.Errorf("sparql: DELETE WHERE: %w", err)
	}
	varIdx := make(map[string]int, len(res.vars))
	for i, v := range res.vars {
		varIdx[v] = i
	}
	defaults := e.defaultGraphSet()
	type delKey struct {
		graph  string
		triple rdf.Triple
	}
	seen := make(map[delKey]struct{})
	var ops []store.UpdateOp
	emit := func(graph string, t rdf.Triple) {
		k := delKey{graph, t}
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		ops = append(ops, store.UpdateOp{Graph: graph, Triple: t})
	}
	w := len(res.vars)
	for i := 0; i < res.n; i++ {
		row := res.cells[i*w : (i+1)*w]
		for _, pq := range op.Patterns {
			t, ok := instantiate(pq.Pattern, varIdx, res.terms, row)
			if !ok {
				continue // an unbound slot: no ground triple to delete
			}
			if pq.Graph != "" {
				emit(pq.Graph, t)
				continue
			}
			for _, g := range defaults {
				emit(g, t)
			}
		}
	}
	return ops, nil
}

// instantiate substitutes a solution row — cells indexing terms, the
// compact result's layout — into a pattern; ok is false when any variable
// slot is unbound in the row.
func instantiate(tp TriplePattern, varIdx map[string]int, terms []rdf.Term, row []uint32) (rdf.Triple, bool) {
	slot := func(n Node) (rdf.Term, bool) {
		if !n.IsVar {
			return n.Term, true
		}
		i, ok := varIdx[n.Var]
		if !ok || row[i] == 0 {
			return rdf.Term{}, false
		}
		return terms[row[i]], true
	}
	s, ok1 := slot(tp.S)
	p, ok2 := slot(tp.P)
	o, ok3 := slot(tp.O)
	if !ok1 || !ok2 || !ok3 {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

// defaultInsertGraph resolves the target graph of un-GRAPH'd inserted
// triples: the first configured default graph. With no default graphs
// configured there is no well-defined target, so the request must name one
// with GRAPH.
func (e *Engine) defaultInsertGraph() (string, error) {
	if len(e.DefaultGraphs) > 0 {
		return e.DefaultGraphs[0], nil
	}
	return "", fmt.Errorf("sparql: INSERT DATA outside GRAPH requires a configured default graph; wrap the triples in GRAPH <uri> { ... }")
}

// defaultGraphSet is the graph set un-GRAPH'd patterns and deletes range
// over: the engine's default graphs, or every graph in the store.
func (e *Engine) defaultGraphSet() []string {
	if len(e.DefaultGraphs) > 0 {
		return e.DefaultGraphs
	}
	return e.Store.GraphURIs()
}
