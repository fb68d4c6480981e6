// Package baselines implements the alternative data preparation strategies
// the paper evaluates RDFFrames against (§6.3.3):
//
//   - Navigation + pandas: push only seed/expand navigation into the RDF
//     engine (as one query per navigation run) and perform every relational
//     operator on the client in dataframes.
//   - SPARQL + pandas: fetch each triple pattern with its own trivial
//     SPARQL query and do everything else, including joins between
//     patterns, in dataframes.
//   - rdflib + pandas: no RDF engine at all — answer each pattern by a
//     linear scan over the parsed triple list, mimicking an ad-hoc script
//     over a serialized dump, with all processing in dataframes.
//
// All three share one operator interpreter, which doubles as the reference
// implementation of the paper's operator semantics (Section 3): the
// differential tests check the optimized SPARQL translation against it.
package baselines

import (
	"fmt"

	"rdfframes/internal/client"
	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

// NavSource resolves a run of navigational operators into a dataframe.
type NavSource interface {
	// ResolveNav evaluates a chain of seed/expand operators.
	ResolveNav(ops []core.Op) (*dataframe.DataFrame, error)
	// BatchNav reports whether consecutive navigational operators should
	// be resolved together (pushed down as one query).
	BatchNav() bool
}

// Run interprets an operator chain: navigation through src, every
// relational operator on dataframes.
func Run(chain *core.Chain, src NavSource) (*dataframe.DataFrame, error) {
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	in := &interp{src: src}
	df, err := in.run(chain.Ops)
	if err != nil {
		return nil, err
	}
	if len(in.pending) > 0 {
		return nil, fmt.Errorf("baselines: filter column %q never became visible", in.pending[0].Col)
	}
	return df, nil
}

type interp struct {
	src     NavSource
	pending []core.Condition
}

func (in *interp) run(ops []core.Op) (*dataframe.DataFrame, error) {
	var cur *dataframe.DataFrame
	i := 0
	for i < len(ops) {
		switch op := ops[i].(type) {
		case core.SeedOp, core.ExpandOp:
			// Collect a navigation run.
			j := i + 1
			if in.src.BatchNav() {
				for j < len(ops) {
					if _, ok := ops[j].(core.ExpandOp); !ok {
						break
					}
					j++
				}
			}
			var err error
			cur, err = in.navigate(cur, ops[i:j])
			if err != nil {
				return nil, err
			}
			in.attachPending(&cur)
			i = j
			continue

		case core.FilterOp:
			for _, cond := range op.Conds {
				if !cur.HasColumn(cond.Col) {
					in.pending = append(in.pending, cond)
					continue
				}
				cur = filterDF(cur, cond)
			}

		case core.GroupByOp:
			// Consumed together with the following aggregations.
			aggs := []dataframe.AggSpec{}
			j := i + 1
			for j < len(ops) {
				a, ok := ops[j].(core.AggregationOp)
				if !ok {
					break
				}
				aggs = append(aggs, dataframe.AggSpec{
					Fn: dataframe.AggFn(a.Agg.Fn), Col: a.Agg.Src, As: a.Agg.New, Distinct: a.Agg.Distinct,
				})
				j++
			}
			g, err := cur.GroupBy(op.Cols...)
			if err != nil {
				return nil, err
			}
			cur, err = g.Aggregate(aggs...)
			if err != nil {
				return nil, err
			}
			i = j
			continue

		case core.AggregateOp:
			var err error
			cur, err = cur.Aggregate(dataframe.AggFn(op.Agg.Fn), op.Agg.Src, op.Agg.New, op.Agg.Distinct)
			if err != nil {
				return nil, err
			}

		case core.SelectColsOp:
			var err error
			cur, err = cur.Select(op.Cols...)
			if err != nil {
				return nil, err
			}

		case core.SortOp:
			keys := make([]dataframe.SortKey, len(op.Keys))
			for k, key := range op.Keys {
				keys[k] = dataframe.SortKey{Col: key.Col, Desc: key.Desc}
			}
			var err error
			cur, err = cur.Sort(keys...)
			if err != nil {
				return nil, err
			}

		case core.HeadOp:
			cur = cur.Head(op.K, op.Offset)

		case core.JoinOp:
			sub := &interp{src: in.src}
			right, err := sub.run(op.Other.Ops)
			if err != nil {
				return nil, err
			}
			in.pending = append(in.pending, sub.pending...)
			how := map[core.JoinType]dataframe.JoinType{
				core.InnerJoin:      dataframe.InnerJoin,
				core.LeftOuterJoin:  dataframe.LeftOuterJoin,
				core.RightOuterJoin: dataframe.RightOuterJoin,
				core.FullOuterJoin:  dataframe.FullOuterJoin,
			}[op.Type]
			// Rename the join columns, then natural-join on every shared
			// column: the SPARQL translation joins compatible mappings, so
			// any column the two frames share is part of the join key.
			if op.NewCol != "" && op.NewCol != op.Col {
				if cur, err = cur.Rename(op.Col, op.NewCol); err != nil {
					return nil, err
				}
			}
			if op.NewCol != "" && op.NewCol != op.OtherCol {
				if right, err = right.Rename(op.OtherCol, op.NewCol); err != nil {
					return nil, err
				}
			}
			if op.Type == core.FullOuterJoin {
				// The paper defines full outer join as
				// (A OPTIONAL B) UNION (B OPTIONAL A); under bag semantics
				// matched rows appear in both branches, so the reference
				// semantics concatenates the two left joins.
				lr, err := in.joinOnShared(cur, right, dataframe.LeftOuterJoin)
				if err != nil {
					return nil, err
				}
				rl, err := in.joinOnShared(right, cur, dataframe.LeftOuterJoin)
				if err != nil {
					return nil, err
				}
				aligned, err := rl.Select(lr.Columns()...)
				if err != nil {
					return nil, err
				}
				if cur, err = lr.Concat(aligned); err != nil {
					return nil, err
				}
			} else if cur, err = in.joinOnShared(cur, right, how); err != nil {
				return nil, err
			}
			in.attachPending(&cur)

		default:
			return nil, fmt.Errorf("baselines: unknown operator %T", ops[i])
		}
		i++
	}
	return cur, nil
}

func (in *interp) attachPending(cur **dataframe.DataFrame) {
	var still []core.Condition
	for _, cond := range in.pending {
		if (*cur).HasColumn(cond.Col) {
			*cur = filterDF(*cur, cond)
		} else {
			still = append(still, cond)
		}
	}
	in.pending = still
}

// navigate resolves a navigation run and joins it with the current frame.
func (in *interp) navigate(cur *dataframe.DataFrame, navOps []core.Op) (*dataframe.DataFrame, error) {
	if in.src.BatchNav() {
		fetched, err := in.src.ResolveNav(navOps)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			return fetched, nil
		}
		return in.joinOnShared(cur, fetched, dataframe.InnerJoin)
	}
	// Per-operator resolution: optional expands left-join in dataframes.
	for _, op := range navOps {
		fetched, err := in.src.ResolveNav([]core.Op{toSeed(op)})
		if err != nil {
			return nil, err
		}
		how := dataframe.InnerJoin
		if e, ok := op.(core.ExpandOp); ok && e.Optional {
			how = dataframe.LeftOuterJoin
		}
		if cur == nil {
			cur = fetched
			continue
		}
		cur, err = in.joinOnShared(cur, fetched, how)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// toSeed rewrites an expand as a standalone seed pattern so a single-op
// chain is valid for the pattern sources.
func toSeed(op core.Op) core.Op {
	e, ok := op.(core.ExpandOp)
	if !ok {
		return op
	}
	s := core.SeedOp{GraphURI: e.GraphURI, S: sparql.Variable(e.Src), P: sparql.TermNode(e.Pred), O: sparql.Variable(e.New)}
	if e.In {
		s.S, s.O = s.O, s.S
	}
	return s
}

// joinOnShared natural-joins two frames on every shared column with the
// engine's compatible-mapping semantics (unbound cells match anything and
// are filled from the other side; left rows without a compatible partner
// are null-padded under outer joins). It delegates to the SPARQL
// evaluator's join primitives so that client-side joins agree exactly with
// engine-side joins.
func (in *interp) joinOnShared(left, right *dataframe.DataFrame, how dataframe.JoinType) (*dataframe.DataFrame, error) {
	shared := false
	for _, c := range left.Columns() {
		if right.HasColumn(c) {
			shared = true
			break
		}
	}
	if !shared {
		return nil, fmt.Errorf("baselines: no shared column between %v and %v", left.Columns(), right.Columns())
	}
	l := toBindings(left)
	r := toBindings(right)
	var joined []sparql.Binding
	switch how {
	case dataframe.LeftOuterJoin:
		joined = sparql.LeftJoinBindings(l, r)
	case dataframe.RightOuterJoin:
		joined = sparql.LeftJoinBindings(r, l)
	default:
		joined = sparql.JoinBindings(l, r)
	}
	cols := left.Columns()
	for _, c := range right.Columns() {
		if !left.HasColumn(c) {
			cols = append(cols, c)
		}
	}
	out := dataframe.New(cols...)
	for _, b := range joined {
		row := make([]rdf.Term, len(cols))
		for i, c := range cols {
			row[i] = b[c]
		}
		out.Append(row)
	}
	return out, nil
}

func toBindings(df *dataframe.DataFrame) []sparql.Binding {
	cols := df.Columns()
	out := make([]sparql.Binding, df.Len())
	for i := 0; i < df.Len(); i++ {
		b := make(sparql.Binding, len(cols))
		for _, c := range cols {
			if v := df.Cell(i, c); v.IsBound() {
				b[c] = v
			}
		}
		out[i] = b
	}
	return out
}

// filterDF keeps the rows that satisfy the condition's expression, with
// FILTER semantics.
func filterDF(df *dataframe.DataFrame, cond core.Condition) *dataframe.DataFrame {
	cols := df.Columns()
	return df.Filter(func(row []rdf.Term, _ func(string) rdf.Term) bool {
		bound := make(map[string]rdf.Term, len(cols))
		for i, c := range cols {
			if row[i].IsBound() {
				bound[c] = row[i]
			}
		}
		return sparql.EvalCondition(cond.Expr, bound)
	})
}

// EngineNav resolves navigation runs by compiling them to SPARQL and
// executing on a client. With Batch=true it is the paper's
// "Navigation + pandas" baseline; with Batch=false each pattern becomes its
// own trivial query — the "SPARQL + pandas" baseline.
type EngineNav struct {
	Client client.Client
	Batch  bool
}

// BatchNav implements NavSource.
func (e *EngineNav) BatchNav() bool { return e.Batch }

// ResolveNav implements NavSource by query pushdown.
func (e *EngineNav) ResolveNav(ops []core.Op) (*dataframe.DataFrame, error) {
	query, err := core.BuildSPARQL(&core.Chain{Ops: ops})
	if err != nil {
		return nil, err
	}
	return e.Client.Frame(query)
}

// ScanNav answers each pattern by a linear scan over an in-memory triple
// list, the way an rdflib-based ad-hoc script would after parsing a dump —
// the paper's "rdflib + pandas" baseline.
type ScanNav struct {
	// Triples maps graph URI to the parsed triples of that graph. An RDF
	// graph is a set of triples; use NewScanNav to deduplicate dumps.
	Triples map[string][]rdf.Triple
}

// NewScanNav builds a scan source from raw triple lists, dropping duplicate
// triples (RDF graphs have set semantics, and the store they are compared
// against deduplicates on load).
func NewScanNav(graphs map[string][]rdf.Triple) *ScanNav {
	out := make(map[string][]rdf.Triple, len(graphs))
	for uri, triples := range graphs {
		seen := make(map[rdf.Triple]bool, len(triples))
		var uniq []rdf.Triple
		for _, tr := range triples {
			if !seen[tr] {
				seen[tr] = true
				uniq = append(uniq, tr)
			}
		}
		out[uri] = uniq
	}
	return &ScanNav{Triples: out}
}

// BatchNav implements NavSource: scans resolve one pattern at a time.
func (s *ScanNav) BatchNav() bool { return false }

// ResolveNav implements NavSource by scanning.
func (s *ScanNav) ResolveNav(ops []core.Op) (*dataframe.DataFrame, error) {
	if len(ops) != 1 {
		return nil, fmt.Errorf("baselines: scan source resolves single patterns, got %d ops", len(ops))
	}
	seed, ok := toSeed(ops[0]).(core.SeedOp)
	if !ok {
		return nil, fmt.Errorf("baselines: scan source needs a pattern op, got %T", ops[0])
	}
	var cols []string
	colSeen := map[string]bool{}
	for _, n := range []sparql.Node{seed.S, seed.P, seed.O} {
		if n.IsVar && !colSeen[n.Var] {
			colSeen[n.Var] = true
			cols = append(cols, n.Var)
		}
	}
	df := dataframe.New(cols...)
	match := func(n sparql.Node, t rdf.Term) bool {
		return n.IsVar || n.Term == t
	}
	for _, tr := range s.Triples[seed.GraphURI] {
		if !match(seed.S, tr.S) || !match(seed.P, tr.P) || !match(seed.O, tr.O) {
			continue
		}
		row := make([]rdf.Term, 0, len(cols))
		seen := map[string]rdf.Term{}
		consistent := true
		for _, nv := range []struct {
			n sparql.Node
			t rdf.Term
		}{{seed.S, tr.S}, {seed.P, tr.P}, {seed.O, tr.O}} {
			if !nv.n.IsVar {
				continue
			}
			if prev, ok := seen[nv.n.Var]; ok {
				if prev != nv.t {
					consistent = false
				}
				continue
			}
			seen[nv.n.Var] = nv.t
			row = append(row, nv.t)
		}
		if consistent && len(row) == len(cols) {
			df.Append(row)
		}
	}
	return df, nil
}
