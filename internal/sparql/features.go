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

// FeatureSpec describes one feature-matrix request.
type FeatureSpec struct {
	// Query is a SELECT query whose solutions name the nodes to featurize.
	Query string
	// Var is the query variable holding the nodes; empty selects the
	// query's first projected variable.
	Var string
	// HopCap bounds each 2-hop neighborhood count (0 = DefaultHopCap, < 0
	// = unbounded).
	HopCap int
}

// FeatureVars is the column layout of every Features result.
var FeatureVars = []string{"node", "out_degree", "in_degree", "out_2hop", "in_2hop"}

// Features evaluates spec.Query and returns one row per distinct bound
// node in spec.Var with the node's topology features as xsd:integer
// literals, in the query result's canonical order (first occurrence
// wins). Nodes not interned in the store — computed terms, literals never
// stored — get all-zero features. The result is a deterministic function
// of (spec, store contents), independent of parallelism and plan choice.
func (e *Engine) Features(ctx context.Context, spec FeatureSpec) (*Results, error) {
	q, qp, err := e.planned(ctx, spec.Query)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		return nil, fmt.Errorf("sparql: features: EXPLAIN queries are not featurizable")
	}
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
	dict := e.Store.Dict()
	seen := make([]bool, len(res.terms))
	seen[0] = true // unbound cells name no node
	out := &Results{Vars: append([]string(nil), FeatureVars...)}
	for i := 0; i < res.n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell := res.cells[i*len(res.vars)+col]
		if seen[cell] {
			continue
		}
		seen[cell] = true
		t := res.terms[cell]
		var nf store.NodeFeatures
		if id, ok := dict.Lookup(t); ok {
			nf = e.Store.NodeFeatures(e.DefaultGraphs, id, hopCap)
		}
		out.Rows = append(out.Rows, []rdf.Term{
			t,
			intTerm(nf.OutDegree),
			intTerm(nf.InDegree),
			intTerm(nf.Out2Hop),
			intTerm(nf.In2Hop),
		})
	}
	return out, nil
}

func intTerm(n int) rdf.Term {
	return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
}
