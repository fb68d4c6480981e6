package rdfframes

import (
	"fmt"
	"io"

	"rdfframes/internal/core"
	"rdfframes/internal/dataframe"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

// FrameError describes an invalid API call on a frame. Errors are recorded
// on the frame and surfaced by Execute/ToSPARQL, so calls remain chainable.
type FrameError struct {
	Op  string
	Msg string
}

func (e *FrameError) Error() string { return "rdfframes: " + e.Op + ": " + e.Msg }

// RDFFrame is a lazy, logical description of a table to be extracted from a
// knowledge graph: a persistent chain of recorded operators. Frames are
// immutable; every operator returns a new frame sharing the prefix, so
// branching (the paper's cache()) is free.
type RDFFrame struct {
	graph *KnowledgeGraph
	prev  *RDFFrame
	op    core.Op
	err   error
}

func (f *RDFFrame) with(op core.Op) *RDFFrame {
	return &RDFFrame{graph: f.graph, prev: f, op: op, err: f.err}
}

func (f *RDFFrame) fail(err error) *RDFFrame {
	if f.err == nil {
		f.err = err
	}
	return f
}

// Err returns the first API error recorded on the frame's chain, if any.
func (f *RDFFrame) Err() error { return f.err }

// Graph returns the knowledge graph the frame was seeded from.
func (f *RDFFrame) Graph() *KnowledgeGraph { return f.graph }

// chain collects the recorded operators in call order.
func (f *RDFFrame) chain() *core.Chain {
	var ops []core.Op
	for cur := f; cur != nil; cur = cur.prev {
		if cur.op != nil {
			ops = append(ops, cur.op)
		}
	}
	// Reverse into FIFO order.
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return &core.Chain{Ops: ops}
}

// Step describes one navigation step for Expand: follow Pred from the
// source column into a new column. Build steps with Out and In; mark a step
// optional with Opt.
type Step struct {
	Pred     string
	As       string
	Incoming bool
	Optional bool
}

// Out returns a step following pred from the source column (as subject) to
// a new column named as (the object).
func Out(pred, as string) Step { return Step{Pred: pred, As: as} }

// In returns a step following pred in the incoming direction: the new
// column as holds subjects whose pred-object is the source column.
func In(pred, as string) Step { return Step{Pred: pred, As: as, Incoming: true} }

// Opt marks the step optional: rows without the edge keep a null in the new
// column instead of being dropped.
func (s Step) Opt() Step { s.Optional = true; return s }

// Expand navigates from the column src along each step, adding one new
// column per step — the paper's main navigational operator.
func (f *RDFFrame) Expand(src string, steps ...Step) *RDFFrame {
	if f.err != nil {
		return f
	}
	out := f
	for _, s := range steps {
		pred, err := f.graph.expandIRI("expand", s.Pred)
		if err != nil {
			return out.fail(err)
		}
		if !core.ValidColumn(s.As) {
			return out.fail(&FrameError{Op: "expand", Msg: "invalid column name " + s.As})
		}
		out = out.with(core.ExpandOp{
			GraphURI: f.graph.uri,
			Src:      src,
			Pred:     rdf.NewIRI(pred),
			New:      s.As,
			In:       s.Incoming,
			Optional: s.Optional,
		})
	}
	return out
}

// Conds maps column names to condition strings, mirroring the paper's
// filter argument. Supported condition forms per column:
//
//	">=50", "<2.5", "=dbpr:United_States", "!=\"x\""  — comparisons
//	"isURI", "isLiteral", "isBlank", "isNumeric"       — type checks
//	"In(dblp:vldb, dblp:sigmod)"                       — membership
//	`regex(str(?col), "USA")`                          — raw SPARQL expression
type Conds map[string][]string

// Filter keeps only rows satisfying every condition — the paper's filter
// operator. Filters on aggregated columns become HAVING clauses; the
// necessary nesting is handled transparently.
func (f *RDFFrame) Filter(conds Conds) *RDFFrame {
	if f.err != nil {
		return f
	}
	parsed, err := parseConds(f.graph, conds)
	if err != nil {
		return f.fail(err)
	}
	return f.with(core.FilterOp{Conds: parsed})
}

// FilterRaw attaches a raw SPARQL boolean expression constraining col. The
// expression is parsed here, under the graph's prefixes: one that does not
// parse is a FrameError before any request is sent.
func (f *RDFFrame) FilterRaw(col, expr string) *RDFFrame {
	if f.err != nil {
		return f
	}
	e, err := parseRaw(f.graph, expr)
	if err != nil {
		return f.fail(err)
	}
	return f.with(core.FilterOp{Conds: []core.Condition{{Col: col, Expr: e}}})
}

// GroupedRDFFrame is a frame partitioned by grouping columns, awaiting
// aggregation calls.
type GroupedRDFFrame struct {
	f *RDFFrame
}

// GroupBy partitions the frame by the given columns; follow with one or
// more aggregation calls.
func (f *RDFFrame) GroupBy(cols ...string) *GroupedRDFFrame {
	if f.err != nil {
		return &GroupedRDFFrame{f: f}
	}
	return &GroupedRDFFrame{f: f.with(core.GroupByOp{Cols: cols})}
}

func (g *GroupedRDFFrame) agg(fn, col, as string, distinct bool) *RDFFrame {
	if g.f.err != nil {
		return g.f
	}
	if !core.ValidColumn(as) {
		return g.f.fail(&FrameError{Op: fn, Msg: "invalid column name " + as})
	}
	return g.f.with(core.AggregationOp{Agg: core.AggSpec{Fn: fn, Src: col, New: as, Distinct: distinct}})
}

// Count counts rows per group by the values of col.
func (g *GroupedRDFFrame) Count(col, as string) *RDFFrame { return g.agg("count", col, as, false) }

// CountDistinct counts distinct values of col per group.
func (g *GroupedRDFFrame) CountDistinct(col, as string) *RDFFrame {
	return g.agg("count", col, as, true)
}

// Sum sums col per group.
func (g *GroupedRDFFrame) Sum(col, as string) *RDFFrame { return g.agg("sum", col, as, false) }

// Avg averages col per group.
func (g *GroupedRDFFrame) Avg(col, as string) *RDFFrame { return g.agg("avg", col, as, false) }

// Min takes the minimum of col per group.
func (g *GroupedRDFFrame) Min(col, as string) *RDFFrame { return g.agg("min", col, as, false) }

// Max takes the maximum of col per group.
func (g *GroupedRDFFrame) Max(col, as string) *RDFFrame { return g.agg("max", col, as, false) }

// Sample picks one value of col per group.
func (g *GroupedRDFFrame) Sample(col, as string) *RDFFrame { return g.agg("sample", col, as, false) }

// AggFunc names a whole-frame aggregation function for Aggregate.
type AggFunc string

// Whole-frame aggregation functions.
const (
	Count         AggFunc = "count"
	CountDistinct AggFunc = "count_distinct"
	Sum           AggFunc = "sum"
	Avg           AggFunc = "avg"
	Min           AggFunc = "min"
	Max           AggFunc = "max"
	Sample        AggFunc = "sample"
)

// Aggregate reduces the whole frame to a single aggregated value — the
// paper's aggregate operator. No further operators may follow.
func (f *RDFFrame) Aggregate(fn AggFunc, col, as string) *RDFFrame {
	if f.err != nil {
		return f
	}
	spec := core.AggSpec{Fn: string(fn), Src: col, New: as}
	if fn == CountDistinct {
		spec.Fn, spec.Distinct = "count", true
	}
	return f.with(core.AggregateOp{Agg: spec})
}

// SelectCols projects the frame onto the given columns.
func (f *RDFFrame) SelectCols(cols ...string) *RDFFrame {
	if f.err != nil {
		return f
	}
	return f.with(core.SelectColsOp{Cols: cols})
}

// Join joins the frame with other on the shared column col.
func (f *RDFFrame) Join(other *RDFFrame, col string, jtype JoinType) *RDFFrame {
	return f.JoinOn(other, col, col, jtype, col)
}

// JoinOn joins the frame's col with other's otherCol; the joined column is
// named newCol in the result.
func (f *RDFFrame) JoinOn(other *RDFFrame, col, otherCol string, jtype JoinType, newCol string) *RDFFrame {
	if f.err != nil {
		return f
	}
	if other.err != nil {
		return f.fail(other.err)
	}
	if !core.ValidColumn(newCol) {
		return f.fail(&FrameError{Op: "join", Msg: "invalid column name " + newCol})
	}
	return f.with(core.JoinOp{
		Other:    other.chain(),
		Col:      col,
		OtherCol: otherCol,
		Type:     jtype,
		NewCol:   newCol,
	})
}

// SortKey names a sort column and direction.
type SortKey struct {
	Col  string
	Desc bool
}

// Asc returns an ascending sort key.
func Asc(col string) SortKey { return SortKey{Col: col} }

// Desc returns a descending sort key.
func Desc(col string) SortKey { return SortKey{Col: col, Desc: true} }

// Sort orders the frame by the given keys.
func (f *RDFFrame) Sort(keys ...SortKey) *RDFFrame {
	if f.err != nil {
		return f
	}
	ks := make([]core.SortKey, len(keys))
	for i, k := range keys {
		ks[i] = core.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return f.with(core.SortOp{Keys: ks})
}

// Head keeps the first k rows. No further operators may follow.
func (f *RDFFrame) Head(k int) *RDFFrame { return f.Slice(k, 0) }

// Slice keeps k rows starting at offset. No further operators may follow.
func (f *RDFFrame) Slice(k, offset int) *RDFFrame {
	if f.err != nil {
		return f
	}
	return f.with(core.HeadOp{K: k, Offset: offset})
}

// Cache marks the frame as a shared branching point, as the paper's cache()
// does. It is a no-op hint: frames are persistent, so branching is free, and
// when several branches of one query repeat the frame's operators the engine
// evaluates each structurally equal subplan once per query without being
// told (EXPLAIN reports the reuses).
func (f *RDFFrame) Cache() *RDFFrame { return f }

// ToSPARQL compiles the recorded operators into a single optimized SPARQL
// query (the paper's Generator and Translator).
func (f *RDFFrame) ToSPARQL() (string, error) {
	if f.err != nil {
		return "", f.err
	}
	return core.BuildSPARQL(f.chain())
}

// ToNaiveSPARQL compiles the frame with the naive one-subquery-per-operator
// strategy; it exists for benchmarking against optimized generation.
func (f *RDFFrame) ToNaiveSPARQL() (string, error) {
	if f.err != nil {
		return "", f.err
	}
	q, err := core.NaiveTranslate(f.chain())
	if err != nil {
		return "", err
	}
	return sparql.Render(q), nil
}

// QueryModel exposes the intermediate representation for inspection.
func (f *RDFFrame) QueryModel() (*core.QueryModel, error) {
	if f.err != nil {
		return nil, f.err
	}
	return core.Generate(f.chain())
}

// Execute compiles the frame, runs the query through the client (handling
// pagination and endpoint communication), and returns the resulting table.
func (f *RDFFrame) Execute(c Client) (*DataFrame, error) {
	query, err := f.ToSPARQL()
	if err != nil {
		return nil, err
	}
	df, err := c.Frame(query)
	if err != nil {
		return nil, fmt.Errorf("rdfframes: executing query: %w", err)
	}
	return df, nil
}

// ExportCSV compiles the frame and streams its full result into w as CSV
// (header row first), returning the bytes written. Unlike Execute, the
// result is never materialized: the server (or embedded engine) encodes one
// bounded chunk at a time, so frames far larger than memory export safely.
// The client must implement Exporter; both ConnectHTTP and ConnectStore
// clients do.
func (f *RDFFrame) ExportCSV(c Client, w io.Writer) (int64, error) {
	query, err := f.ToSPARQL()
	if err != nil {
		return 0, err
	}
	ex, ok := c.(Exporter)
	if !ok {
		return 0, fmt.Errorf("rdfframes: client %T does not support streaming export", c)
	}
	n, err := ex.Export(query, w)
	if err != nil {
		return n, fmt.Errorf("rdfframes: exporting frame: %w", err)
	}
	return n, nil
}

// Features compiles the frame and returns a feature matrix for the distinct
// nodes bound to col: one row per node with its out-degree, in-degree, and
// bounded 2-hop out/in neighborhood counts, computed inside the store
// without decoding terms. col empty selects the frame's first column;
// hopCap bounds each 2-hop count (0 = engine default, negative = no cap).
// The client must implement Featurizer; both ConnectHTTP and ConnectStore
// clients do.
func (f *RDFFrame) Features(c Client, col string, hopCap int) (*DataFrame, error) {
	query, err := f.ToSPARQL()
	if err != nil {
		return nil, err
	}
	ft, ok := c.(Featurizer)
	if !ok {
		return nil, fmt.Errorf("rdfframes: client %T does not support topology features", c)
	}
	res, err := ft.Features(query, col, hopCap)
	if err != nil {
		return nil, fmt.Errorf("rdfframes: extracting features: %w", err)
	}
	return ResultsToDataFrame(res), nil
}

// ResultsToDataFrame converts SPARQL results into a DataFrame.
func ResultsToDataFrame(r *sparql.Results) *DataFrame {
	return dataframe.FromRows(r.Vars, r.Rows)
}

// ChainOf exposes a frame's recorded operator chain. It exists for the
// benchmark harness and the baseline strategies, which interpret the same
// logical description through different execution paths; applications
// should not need it.
func ChainOf(f *RDFFrame) *core.Chain { return f.chain() }
