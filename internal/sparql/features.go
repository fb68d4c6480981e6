package sparql

import (
	"context"
	"fmt"
	"strconv"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// FEATURES(...)-style engine entry point: run a node-selecting query, then
// compute store-side topology features (in/out degree, bounded 2-hop
// neighborhood sizes) for every distinct node it returned — all inside one
// store read transaction, so the selection and the features describe the
// same store version.

// DefaultHopCap bounds each 2-hop neighborhood count when FeatureSpec
// leaves HopCap zero: hub nodes stop counting there instead of sweeping
// the whole graph.
const DefaultHopCap = 1024

// FeatureSpec describes one feature-matrix request. Its nodes are
// featurized in parallel on the engine's worker pool (Engine.Parallelism);
// the result is the same at every setting.
type FeatureSpec struct {
	// Query is a SELECT query whose solutions name the nodes to featurize.
	Query string
	// Var is the query variable holding the nodes; empty selects the
	// query's first projected variable.
	Var string
	// HopCap bounds each 2-hop neighborhood count, which is
	// min(HopCap, the number of distinct nodes within two hops): 0 means
	// DefaultHopCap, < 0 unbounded.
	HopCap int
}

// FeatureVars is the column layout of every Features result.
var FeatureVars = []string{"node", "out_degree", "in_degree", "out_2hop", "in_2hop"}

// Features evaluates spec.Query and returns one row per distinct bound
// node in spec.Var with the node's topology features as xsd:integer
// literals, in the query result's canonical order (first occurrence
// wins). Nodes not interned in the store — computed terms, literals never
// stored — get all-zero features. The nodes are featurized in morsels on
// the engine's worker pool (Parallelism), each worker with its own scratch,
// all under the one store read lock the query ran under; the result is a
// deterministic function of (spec, store contents), independent of
// parallelism and plan choice.
func (e *Engine) Features(ctx context.Context, spec FeatureSpec) (*Results, error) {
	q, qp, err := e.planned(ctx, spec.Query)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		return nil, fmt.Errorf("sparql: features: EXPLAIN queries are not featurizable")
	}
	ev := e.newEvaluator(ctx, false) // the sweep's pool, under the query's deadline
	e.Store.RLock()
	defer e.Store.RUnlock()
	res, err := e.evalLocked(ctx, q, qp)
	if err != nil {
		return nil, err
	}
	col := 0
	if spec.Var != "" {
		col = -1
		for i, v := range res.vars {
			if v == spec.Var {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("sparql: features: query does not bind ?%s (has %v)", spec.Var, res.vars)
		}
	} else if len(res.vars) == 0 {
		return nil, fmt.Errorf("sparql: features: query projects no variables")
	}
	hopCap := spec.HopCap
	if hopCap == 0 {
		hopCap = DefaultHopCap
	} else if hopCap < 0 {
		hopCap = 0 // store-level 0 means unbounded
	}
	// The distinct nodes in first-occurrence order, as table positions and
	// as store ids (0 for a term the store does not hold).
	dict := e.Store.Dict()
	seen := make([]bool, len(res.terms))
	seen[0] = true // unbound cells name no node
	var nodes []uint32
	for i := 0; i < res.n; i++ {
		if cell := res.cells[i*len(res.vars)+col]; !seen[cell] {
			seen[cell] = true
			nodes = append(nodes, cell)
		}
	}
	ids := make([]store.ID, len(nodes))
	for i, cell := range nodes {
		ids[i], _ = dict.Lookup(res.terms[cell])
	}
	feats, err := ev.sweepFeatures(e.Store.FeatureSweep(e.DefaultGraphs, hopCap), ids)
	if err != nil {
		return nil, err
	}
	out := &Results{Vars: append([]string(nil), FeatureVars...), Rows: make([][]rdf.Term, len(nodes))}
	w := len(FeatureVars)
	slab := make([]rdf.Term, len(nodes)*w)
	top := 0
	for _, nf := range feats {
		top = max(top, nf.OutDegree, nf.InDegree, nf.Out2Hop, nf.In2Hop)
	}
	ints := make(intTerms, min(top, DefaultHopCap)+1)
	for i, nf := range feats {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		row[0] = res.terms[nodes[i]]
		row[1] = ints.term(nf.OutDegree)
		row[2] = ints.term(nf.InDegree)
		row[3] = ints.term(nf.Out2Hop)
		row[4] = ints.term(nf.In2Hop)
		out.Rows[i] = row
	}
	return out, nil
}

// featureMorsel is the number of nodes per morsel of a feature sweep.
const featureMorsel = 256

// sweepFeatures runs sweep over ids on the evaluator's pool, a morsel of
// featureMorsel nodes at a time, each pool slot with its own scratch, and
// returns the features by index. Cancellation and the deadline are checked
// before every morsel. The caller holds the store read lock.
func (ev *evaluator) sweepFeatures(sweep store.FeatureSweep, ids []store.ID) ([]store.NodeFeatures, error) {
	feats := make([]store.NodeFeatures, len(ids))
	scratch := make([]store.HopScratch, ev.workers) // one per pool slot
	parts := (len(ids) + featureMorsel - 1) / featureMorsel
	err := ev.forEachPart(parts, func(p int, tk *ticker) error {
		if err := tk.check(); err != nil {
			return err
		}
		lo, hi := p*featureMorsel, min((p+1)*featureMorsel, len(ids))
		sweep.Run(ids[lo:hi], feats[lo:hi], &scratch[tk.slot])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return feats, nil
}

// intTerms renders feature counts as xsd:integer literals, each count
// below its length once: a sweep's counts repeat, and most stop at the cap.
type intTerms []rdf.Term

func (m intTerms) term(n int) rdf.Term {
	if n >= len(m) {
		return intTerm(n)
	}
	if !m[n].IsBound() {
		m[n] = intTerm(n)
	}
	return m[n]
}

func intTerm(n int) rdf.Term {
	return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
}
