// Package core implements the paper's primary contribution: the compilation
// of a recorded sequence of RDFFrames operators into a single optimized
// SPARQL query. It contains the operator records (the Recorder's queue
// entries), the query model intermediate representation (paper §4.1, after
// the Query Graph Model), the generator that replays operators into a query
// model handling the three cases that require nested subqueries (§4.2), the
// translator from query models to the query AST of internal/sparql (§4.3),
// and the naive one-subquery-per-operator translator used as the
// evaluation baseline. Both translators build a *sparql.Query, and
// sparql.Render writes its text; nothing here writes or edits SPARQL text.
package core

import (
	"fmt"
	"regexp"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

var colNameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// ValidColumn reports whether name is usable as a SPARQL variable name.
func ValidColumn(name string) bool { return colNameRE.MatchString(name) }

// JoinType is the join flavour of the paper's join operator.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
)

func (jt JoinType) String() string {
	switch jt {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left_outer"
	case RightOuterJoin:
		return "right_outer"
	case FullOuterJoin:
		return "full_outer"
	}
	return "unknown"
}

// Condition is one filter condition: a SPARQL boolean expression and the
// column it constrains (which decides FILTER vs HAVING placement).
type Condition struct {
	Col  string
	Expr sparql.Expression
}

// AggSpec describes one aggregation.
type AggSpec struct {
	Fn       string // count, sum, avg, min, max, sample
	Src      string // aggregated column
	New      string // result column
	Distinct bool
}

// SortKey is one sort criterion.
type SortKey struct {
	Col  string
	Desc bool
}

// Op is one recorded RDFFrames operator (an entry in the Recorder's FIFO
// queue, paper Figure 1).
type Op interface{ opName() string }

// SeedOp initializes a frame from a triple pattern on a graph (the paper's
// seed operator; feature_domain_range and entities are its variants).
type SeedOp struct {
	GraphURI string
	S, P, O  sparql.Node
}

// ExpandOp navigates from Src over Pred to New (the paper's expand).
type ExpandOp struct {
	GraphURI string // graph to navigate in (usually the seed graph)
	Src      string
	Pred     rdf.Term
	New      string
	In       bool // navigate incoming edges (New is the subject)
	Optional bool // left-outer-join semantics, allows nulls in New
}

// FilterOp filters rows by the conjunction of conditions.
type FilterOp struct {
	Conds []Condition
}

// GroupByOp starts grouping by the given columns; it must be followed by at
// least one AggregationOp.
type GroupByOp struct {
	Cols []string
}

// AggregationOp aggregates within the groups opened by the last GroupByOp.
type AggregationOp struct {
	Agg AggSpec
}

// AggregateOp aggregates the whole frame into a single value (the paper's
// aggregate operator). No operators may follow it.
type AggregateOp struct {
	Agg AggSpec
}

// SelectColsOp projects the frame onto Cols.
type SelectColsOp struct {
	Cols []string
}

// JoinOp joins the frame with another operator chain.
type JoinOp struct {
	Other    *Chain
	Col      string // join column in this frame
	OtherCol string // join column in the other frame
	Type     JoinType
	NewCol   string // name of the joined column in the result
}

// SortOp sorts by the given keys.
type SortOp struct {
	Keys []SortKey
}

// HeadOp keeps K rows starting at Offset. No operators may follow it.
type HeadOp struct {
	K, Offset int
}

func (SeedOp) opName() string        { return "seed" }
func (ExpandOp) opName() string      { return "expand" }
func (FilterOp) opName() string      { return "filter" }
func (GroupByOp) opName() string     { return "group_by" }
func (AggregationOp) opName() string { return "aggregation" }
func (AggregateOp) opName() string   { return "aggregate" }
func (SelectColsOp) opName() string  { return "select_cols" }
func (JoinOp) opName() string        { return "join" }
func (SortOp) opName() string        { return "sort" }
func (HeadOp) opName() string        { return "head" }

// Chain is the recorded operator sequence describing one RDFFrame. Its
// terms and conditions hold full IRIs: prefixed names are expanded when
// the frame is built.
type Chain struct {
	Ops []Op
}

// Validate checks structural rules the API promises: the chain starts with
// a seed, group_by is followed by an aggregation, and nothing follows a
// whole-frame aggregate or head.
func (c *Chain) Validate() error {
	if len(c.Ops) == 0 {
		return fmt.Errorf("core: empty operator chain")
	}
	if _, ok := c.Ops[0].(SeedOp); !ok {
		return fmt.Errorf("core: chain must start with a seed operator, got %s", c.Ops[0].opName())
	}
	for i, op := range c.Ops {
		switch o := op.(type) {
		case SeedOp:
			if i != 0 {
				return fmt.Errorf("core: seed allowed only as the first operator")
			}
		case GroupByOp:
			if i+1 >= len(c.Ops) {
				return fmt.Errorf("core: group_by must be followed by an aggregation")
			}
			if _, ok := c.Ops[i+1].(AggregationOp); !ok {
				return fmt.Errorf("core: group_by must be followed by an aggregation, got %s", c.Ops[i+1].opName())
			}
		case AggregationOp:
			if i == 0 {
				return fmt.Errorf("core: aggregation requires a preceding group_by")
			}
			switch c.Ops[i-1].(type) {
			case GroupByOp, AggregationOp:
			default:
				return fmt.Errorf("core: aggregation requires a preceding group_by")
			}
		case AggregateOp, HeadOp:
			if i != len(c.Ops)-1 {
				return fmt.Errorf("core: no operators may follow %s", op.opName())
			}
		case JoinOp:
			if o.Other == nil {
				return fmt.Errorf("core: join requires another frame")
			}
			if err := o.Other.Validate(); err != nil {
				return fmt.Errorf("core: join right side: %w", err)
			}
		}
	}
	return nil
}
