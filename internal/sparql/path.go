package sparql

import (
	"sort"

	"rdfframes/internal/store"
)

// Property-path evaluation. Sequence paths are desugared by the parser, so
// the evaluator only ever sees a single transitive step: S p+ O (Min 1) or
// S p* O (Min 0). The closure is computed in dictionary-id space directly
// over the store's sorted adjacency runs (ObjectsSP / SubjectsPO) with a
// cycle-safe breadth-first frontier: every node is visited at most once
// per start, so traversal terminates on any graph and the result relation
// has set semantics, as SPARQL 1.1 requires for + and *.
//
// The path relation stays small by seeding the traversal from whatever is
// already bound: a constant endpoint or a variable bound in every current
// row seeds a forward (or backward) closure from just those ids; only a
// fully unconstrained path enumerates graph-wide. Results are emitted in
// ascending id order, so path evaluation is deterministic independent of
// map iteration order — and it runs on the query goroutine, so parallel
// settings cannot reorder it (top-level canonicalization would erase any
// difference regardless).

// pathCtx carries one path element's evaluation state: the active graphs
// and the predicate id (0 when the predicate is absent from the store, in
// which case every adjacency lookup is empty and only zero-length
// semantics produce rows).
type pathCtx struct {
	ev     *evaluator
	graphs []*store.Graph
	pred   store.ID
	min    int
}

// evalPath joins the closure relation of one transitive path element into
// the current batch.
func (ev *evaluator) evalPath(current *idRows, e PathElem, active []string) (*idRows, error) {
	if current.n == 0 {
		return current, nil
	}
	pc := &pathCtx{ev: ev, graphs: ev.resolveGraphs(active), min: e.Min}
	pc.pred, _ = ev.dict.dict.Lookup(e.Pred)

	// Constant endpoints intern through the evaluator dictionary: a term
	// absent from the store still supports the zero-length path to itself.
	var sID, oID store.ID
	if !e.S.IsVar {
		sID = ev.dict.encode(e.S.Term)
	}
	if !e.O.IsVar {
		oID = ev.dict.encode(e.O.Term)
	}

	// Both endpoints constant: the element is a pure existence test.
	if !e.S.IsVar && !e.O.IsVar {
		reach, err := pc.closure(sID, true)
		if err != nil {
			return nil, err
		}
		if containsID(reach, oID) {
			return current, nil
		}
		out := newIDRows(append([]string(nil), current.vars...))
		return out, nil
	}

	rel, err := pc.relation(current, e, sID, oID)
	if err != nil {
		return nil, err
	}
	return ev.join(current, rel, false)
}

// relation builds the path's solution batch over its variable columns.
func (pc *pathCtx) relation(current *idRows, e PathElem, sID, oID store.ID) (*idRows, error) {
	// seed returns the distinct ids to traverse from on one side: the
	// constant, or the variable's values when bound in every current row.
	seed := func(n Node, constID store.ID) ([]store.ID, bool) {
		if !n.IsVar {
			return []store.ID{constID}, true
		}
		if c, ok := current.col(n.Var); ok {
			if ids := distinctSortedCol(current, c); ids[0] != 0 { // no row leaves it unbound
				return ids, true
			}
		}
		return nil, false
	}

	if starts, ok := seed(e.S, sID); ok {
		return pc.forwardRelation(starts, e, oID)
	}
	if ends, ok := seed(e.O, oID); ok {
		return pc.backwardRelation(ends, e)
	}

	// Fully unconstrained: enumerate graph-wide. Zero-length paths connect
	// every graph node to itself, so * starts from the node universe; +
	// only from subjects actually carrying the predicate.
	var starts []store.ID
	if pc.min == 0 {
		starts = pc.unionRuns(func(g *store.Graph) store.Run { return g.Nodes() })
	} else {
		starts = pc.unionRuns(func(g *store.Graph) store.Run { return g.SubjectsOfPred(pc.pred) })
	}
	return pc.forwardRelation(starts, e, oID)
}

// forwardRelation emits the closure pairs reachable from starts, shaped
// for the element's variable columns: (S, O) rows for two distinct
// variables, start-only rows when O is constant (membership test) or when
// S and O are the same variable (nodes on a cycle through themselves).
func (pc *pathCtx) forwardRelation(starts []store.ID, e PathElem, oID store.ID) (*idRows, error) {
	sameVar := e.S.IsVar && e.O.IsVar && e.S.Var == e.O.Var
	var rel *idRows
	switch {
	case !e.S.IsVar:
		rel = newIDRows([]string{e.O.Var})
	case !e.O.IsVar || sameVar:
		rel = newIDRows([]string{e.S.Var})
	default:
		rel = newIDRows([]string{e.S.Var, e.O.Var})
	}
	for _, start := range starts {
		reach, err := pc.closure(start, true)
		if err != nil {
			return nil, err
		}
		switch {
		case sameVar:
			if containsID(reach, start) {
				rel.appendRow([]store.ID{start})
			}
		case !e.O.IsVar:
			if containsID(reach, oID) {
				rel.appendRow([]store.ID{start})
			}
		case !e.S.IsVar:
			for _, v := range reach {
				rel.appendRow([]store.ID{v})
			}
		default:
			for _, v := range reach {
				rel.appendRow([]store.ID{start, v})
			}
		}
	}
	return rel, nil
}

// backwardRelation emits the closure pairs that reach ends, walking the
// POS index against edge direction.
func (pc *pathCtx) backwardRelation(ends []store.ID, e PathElem) (*idRows, error) {
	var rel *idRows
	if !e.S.IsVar {
		rel = newIDRows([]string{e.O.Var})
	} else if !e.O.IsVar {
		rel = newIDRows([]string{e.S.Var})
	} else {
		rel = newIDRows([]string{e.S.Var, e.O.Var})
	}
	for _, end := range ends {
		reach, err := pc.closure(end, false)
		if err != nil {
			return nil, err
		}
		for _, u := range reach {
			switch {
			case !e.S.IsVar:
				rel.appendRow([]store.ID{end})
			case !e.O.IsVar:
				rel.appendRow([]store.ID{u})
			default:
				rel.appendRow([]store.ID{u, end})
			}
		}
	}
	return rel, nil
}

// closure runs the breadth-first frontier expansion from start, forward
// over ObjectsSP or backward over SubjectsPO, across every active graph.
// Nodes enter the visited set exactly once, so cycles terminate and the
// result is duplicate-free; min 0 seeds the start into its own closure
// (the zero-length path exists even for terms absent from the graph). The
// result is sorted ascending. For min 1 the start is deliberately NOT
// pre-visited: a cycle back to the start must emit it.
func (pc *pathCtx) closure(start store.ID, forward bool) ([]store.ID, error) {
	visited := map[store.ID]bool{}
	out := []store.ID{}
	if pc.min == 0 {
		visited[start] = true
		out = append(out, start)
	}
	frontier := []store.ID{start}
	for len(frontier) > 0 {
		var next []store.ID
		for _, u := range frontier {
			if err := pc.ev.tick(); err != nil {
				return nil, err
			}
			for _, g := range pc.graphs {
				var adj store.Run
				if forward {
					adj = g.ObjectsSP(u, pc.pred)
				} else {
					adj = g.SubjectsPO(pc.pred, u)
				}
				for _, v := range adj {
					if !visited[v] {
						visited[v] = true
						out = append(out, v)
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	sortIDSlice(out)
	return out, nil
}

// resolveGraphs resolves the active graph list to graph handles, defaulting
// to every graph in the store (mirroring MatchAny's empty-list rule).
func (ev *evaluator) resolveGraphs(active []string) []*store.Graph {
	uris := active
	if len(uris) == 0 {
		uris = ev.store.GraphURIs()
	}
	gs := make([]*store.Graph, 0, len(uris))
	for _, u := range uris {
		if g := ev.store.Graph(u); g != nil {
			gs = append(gs, g)
		}
	}
	return gs
}

// unionRuns merges one run per active graph into a sorted distinct slice.
func (pc *pathCtx) unionRuns(get func(g *store.Graph) store.Run) []store.ID {
	if len(pc.graphs) == 1 {
		return get(pc.graphs[0])
	}
	seen := map[store.ID]struct{}{}
	var out []store.ID
	for _, g := range pc.graphs {
		for _, id := range get(g) {
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	sortIDSlice(out)
	return out
}

// distinctSortedCol returns the distinct ids of one column, ascending.
func distinctSortedCol(r *idRows, c int) []store.ID {
	seen := make(map[store.ID]struct{}, r.n)
	out := make([]store.ID, 0, r.n)
	rows := r.cursor(0)
	for i := 0; i < r.n; i++ {
		id := rows.next()[c]
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	sortIDSlice(out)
	return out
}

// containsID binary-searches a sorted id slice.
func containsID(ids []store.ID, id store.ID) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

func sortIDSlice(ids []store.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
