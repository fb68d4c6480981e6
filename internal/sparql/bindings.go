package sparql

import (
	"encoding/binary"
	"sort"

	"rdfframes/internal/rdf"
)

// Binding maps variable names to terms. Absent variables are unbound. The
// engine itself evaluates queries over columnar id batches (see idrows.go);
// Binding remains the exchange format for the client-side baselines, which
// join dataframes with exactly the engine's semantics via JoinBindings and
// LeftJoinBindings.
type Binding map[string]rdf.Term

func (b Binding) clone() Binding {
	c := make(Binding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// JoinBindings computes the SPARQL join of two solution multisets
// (compatible mappings merged). Exported for the client-side baselines,
// which must mirror the engine's join semantics exactly.
func JoinBindings(left, right []Binding) []Binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	shared, boundShared := sharedVars(left, right)
	if len(shared) == 0 {
		// Cross product.
		out := make([]Binding, 0, len(left)*len(right))
		for _, l := range left {
			for _, r := range right {
				out = append(out, merge(l, r))
			}
		}
		return out
	}
	needVerify := len(boundShared) < len(shared)
	if len(boundShared) > 0 {
		index := map[string][]Binding{}
		for _, r := range right {
			index[joinKey(r, boundShared)] = append(index[joinKey(r, boundShared)], r)
		}
		var out []Binding
		for _, l := range left {
			for _, r := range index[joinKey(l, boundShared)] {
				if !needVerify || compatible(l, r) {
					out = append(out, merge(l, r))
				}
			}
		}
		return out
	}
	var out []Binding
	for _, l := range left {
		for _, r := range right {
			if compatible(l, r) {
				out = append(out, merge(l, r))
			}
		}
	}
	return out
}

// LeftJoinBindings computes the SPARQL left outer join of two solution
// multisets.
func LeftJoinBindings(left, right []Binding) []Binding {
	if len(left) == 0 {
		return nil
	}
	if len(right) == 0 {
		return left
	}
	shared, boundShared := sharedVars(left, right)
	var out []Binding
	if len(shared) > 0 && len(boundShared) > 0 {
		needVerify := len(boundShared) < len(shared)
		index := map[string][]Binding{}
		for _, r := range right {
			index[joinKey(r, boundShared)] = append(index[joinKey(r, boundShared)], r)
		}
		for _, l := range left {
			matched := false
			for _, r := range index[joinKey(l, boundShared)] {
				if !needVerify || compatible(l, r) {
					out = append(out, merge(l, r))
					matched = true
				}
			}
			if !matched {
				out = append(out, l)
			}
		}
		return out
	}
	for _, l := range left {
		matched := false
		for _, r := range right {
			if compatible(l, r) {
				out = append(out, merge(l, r))
				matched = true
			}
		}
		if !matched {
			out = append(out, l)
		}
	}
	return out
}

// sharedVars returns the variables observed on both sides, plus the subset
// of them bound in every row on both sides (usable as a hash-join key).
func sharedVars(left, right []Binding) (shared, boundShared []string) {
	lv := map[string]bool{}
	for _, row := range left {
		for v := range row {
			lv[v] = true
		}
	}
	rv := map[string]bool{}
	for _, row := range right {
		for v := range row {
			rv[v] = true
		}
	}
	for v := range lv {
		if rv[v] {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	alwaysBound := func(rows []Binding, v string) bool {
		for _, row := range rows {
			if t, ok := row[v]; !ok || !t.IsBound() {
				return false
			}
		}
		return true
	}
	for _, v := range shared {
		if alwaysBound(left, v) && alwaysBound(right, v) {
			boundShared = append(boundShared, v)
		}
	}
	return shared, boundShared
}

// joinKey builds a hash key from the named components. Each component is
// length-prefixed, so crafted term values cannot collide across component
// boundaries (the old "\x00"-separated concatenation could).
func joinKey(row Binding, vars []string) string {
	var buf []byte
	for _, v := range vars {
		s := row[v].String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return string(buf)
}

func compatible(a, b Binding) bool {
	for v, av := range a {
		if bv, ok := b[v]; ok && av.IsBound() && bv.IsBound() && av != bv {
			return false
		}
	}
	return true
}

func merge(a, b Binding) Binding {
	out := a.clone()
	for v, bv := range b {
		if cur, ok := out[v]; !ok || !cur.IsBound() {
			out[v] = bv
		}
	}
	return out
}
