// Package plan implements the core of the cost-based query planner: a
// cardinality model over abstracted triple patterns, join-order search
// (exact dynamic programming up to DPMax patterns, greedy beyond), and the
// inspectable plan tree that EXPLAIN renders.
//
// The package deliberately knows nothing about SPARQL ASTs or the store:
// the sparql package resolves each triple pattern against the statistics
// catalog into a Pattern (base cardinality plus per-position selectivities)
// and gets back an execution order with estimated cardinalities. Keeping
// the search pure combinatorics makes it independently testable and keeps
// the import graph acyclic.
package plan

import "math"

// Pattern is one triple pattern abstracted for planning.
type Pattern struct {
	// Card is the estimated number of matches of the pattern alone.
	Card float64
	// Vars holds the variable name per position (S, P, O); "" marks a
	// constant position.
	Vars [3]string
	// Sel is the per-position selectivity: the factor applied to Card when
	// the position's variable is already bound by earlier patterns
	// (typically 1/distinct-values-at-that-position). Ignored for constant
	// positions.
	Sel [3]float64
}

// DPMax is the largest basic graph pattern ordered by exhaustive dynamic
// programming; larger BGPs fall back to the greedy ordering. 8 patterns is
// 256 subsets — microseconds — while covering every query the paper's
// workload generates.
const DPMax = 8

// minFanout floors the modeled per-step fan-out so that chained
// selectivities cannot underflow to zero and erase cost differences between
// orders.
const minFanout = 1e-9

// Order picks a join order for the patterns given the variables already
// bound when the BGP starts: perm[i] is the index of the pattern to execute
// i-th, and est[i] the estimated cumulative cardinality after executing it.
// The result is deterministic for identical inputs.
func Order(pats []Pattern, bound map[string]bool) (perm []int, est []float64) {
	switch {
	case len(pats) == 0:
		return nil, nil
	case len(pats) == 1:
		return []int{0}, []float64{fanout(&pats[0], bound)}
	case len(pats) <= DPMax:
		return orderDP(pats, bound)
	default:
		return orderGreedy(pats, bound)
	}
}

// correlationCap floors the modeled cumulative cardinality after joining p
// into a prefix with cardinality prev, when p shares at least one bound
// variable with that prefix. Multiplying per-position selectivities
// independently assumes the shared variable's values are uncorrelated with
// the rest of the pattern, which collapses star-shaped estimates on hub
// nodes (every subject that has p1 tends to also have p2, so the join loses
// far fewer rows than independence predicts). The cap is the classic "min
// of the joined sides": a join on a shared key is modeled as no more
// selective than keeping the smaller input.
func correlationCap(card, prev float64, p *Pattern) float64 {
	floor := prev
	if p.Card < floor {
		floor = p.Card
	}
	if card < floor {
		card = floor
	}
	return card
}

// sharesBound reports whether any variable of p is already bound.
func sharesBound(p *Pattern, bound map[string]bool) bool {
	for k := 0; k < 3; k++ {
		if v := p.Vars[k]; v != "" && bound[v] {
			return true
		}
	}
	return false
}

// fanout models the expected number of result rows one input row produces
// when extended by p: the pattern's base cardinality discounted by the
// selectivity of every position whose variable is already bound.
func fanout(p *Pattern, bound map[string]bool) float64 {
	f := p.Card
	for k := 0; k < 3; k++ {
		v := p.Vars[k]
		if v == "" || !bound[v] {
			continue
		}
		s := p.Sel[k]
		if s <= 0 || s > 1 {
			s = 1
		}
		f *= s
	}
	if f < minFanout {
		f = minFanout
	}
	return f
}

// orderDP searches all pattern orders with subset dynamic programming,
// minimizing the sum of intermediate cardinalities (the classic cost proxy
// for materializing pipelines). States are visited in deterministic order
// and ties keep the first-found transition, so equal-cost inputs always
// produce the same order.
func orderDP(pats []Pattern, bound map[string]bool) (perm []int, est []float64) {
	n := len(pats)
	// Map variable names to bits so "bound after subset" is a mask union.
	varID := map[string]int{}
	id := func(v string) int {
		i, ok := varID[v]
		if !ok {
			i = len(varID)
			varID[v] = i
		}
		return i
	}
	patVars := make([]uint64, n)
	for i := range pats {
		for k := 0; k < 3; k++ {
			if v := pats[i].Vars[k]; v != "" {
				patVars[i] |= 1 << id(v)
			}
		}
	}
	var boundMask uint64
	for v, ok := range bound {
		if ok {
			boundMask |= 1 << id(v)
		}
	}
	if len(varID) > 64 {
		return orderGreedy(pats, bound) // cannot mask; pathological input
	}

	type state struct {
		cost, card float64
		last       int8 // pattern executed last to reach this subset
		set        bool
	}
	states := make([]state, 1<<n)
	states[0] = state{cost: 0, card: 1, last: -1, set: true}
	scratch := map[string]bool{}
	fanoutMasked := func(i int, mask uint64) float64 {
		clear(scratch)
		for v, b := range varID {
			if mask&(1<<b) != 0 {
				scratch[v] = true
			}
		}
		return fanout(&pats[i], scratch)
	}
	for mask := 0; mask < 1<<n; mask++ {
		st := states[mask]
		if !st.set {
			continue
		}
		vars := boundMask
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				vars |= patVars[i]
			}
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			card := st.card * fanoutMasked(i, vars)
			if patVars[i]&vars != 0 {
				card = correlationCap(card, st.card, &pats[i])
			}
			cost := st.cost + card
			next := mask | 1<<i
			if !states[next].set || cost < states[next].cost {
				states[next] = state{cost: cost, card: card, last: int8(i), set: true}
			}
		}
	}

	// Reconstruct the order backwards from the full subset.
	perm = make([]int, n)
	est = make([]float64, n)
	mask := 1<<n - 1
	for step := n - 1; step >= 0; step-- {
		st := states[mask]
		perm[step] = int(st.last)
		est[step] = st.card
		mask &^= 1 << st.last
	}
	return perm, est
}

// orderGreedy repeatedly executes the remaining pattern with the smallest
// modeled fan-out given what is bound so far — the fallback for BGPs too
// large for the DP, and for inputs whose variable count exceeds the DP's
// 64-bit mask. Ties pick the lowest pattern index.
func orderGreedy(pats []Pattern, bound map[string]bool) (perm []int, est []float64) {
	n := len(pats)
	b := make(map[string]bool, len(bound)+3*n)
	for v, ok := range bound {
		if ok {
			b[v] = true
		}
	}
	used := make([]bool, n)
	card := 1.0
	for step := 0; step < n; step++ {
		best, bestF := -1, math.MaxFloat64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if f := fanout(&pats[i], b); f < bestF {
				best, bestF = i, f
			}
		}
		used[best] = true
		prev := card
		card *= bestF
		if sharesBound(&pats[best], b) {
			card = correlationCap(card, prev, &pats[best])
		}
		perm = append(perm, best)
		est = append(est, card)
		for k := 0; k < 3; k++ {
			if v := pats[best].Vars[k]; v != "" {
				b[v] = true
			}
		}
	}
	return perm, est
}
