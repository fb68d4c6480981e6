package sparql

import "context"

// Query cost estimation for admission control: the serving layer needs to
// know, before admitting a query, roughly how much work it will be. The
// cost-based planner already computes exactly that — the summed
// intermediate-result cardinalities its join-ordering DP minimizes — so the
// estimate here is a free by-product of planning, cached alongside the plan
// and re-derived only when the stats epoch moves.

// EstimateCost returns the planner's cost estimate for src without
// executing it: the summed intermediate cardinalities of the optimized
// plan, in estimated rows. ok is false when no estimate exists — the
// optimizer is disabled, or the query is an EXPLAIN wrapper (which builds
// its own tracked plan at execution time). Parse errors are returned as
// err. The estimate goes through the plan cache, so on the steady-state
// serving path it costs a cache lookup, not a planning pass.
func (e *Engine) EstimateCost(src string) (cost float64, ok bool, err error) {
	return e.EstimateCostContext(context.Background(), src)
}

// EstimateCostContext is EstimateCost with a caller context: a trace
// carried by ctx records the parse/plan spans this estimate triggers (on
// the serving path, admission-control estimation is where a cold query
// actually pays for parsing and planning; the later serve call hits the
// plan cache).
func (e *Engine) EstimateCostContext(ctx context.Context, src string) (cost float64, ok bool, err error) {
	q, qp, err := e.planned(ctx, src)
	if err != nil {
		return 0, false, err
	}
	if q.Explain || !qp.reorder {
		return 0, false, nil
	}
	return qp.cost, true, nil
}
