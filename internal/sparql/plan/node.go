package plan

import (
	"fmt"
	"strings"
)

// Node is one operator of an inspectable plan tree. Estimated cardinalities
// are filled in by the planner; Actual is recorded during a tracked
// (EXPLAIN) execution and stays -1 for operators that never ran — e.g.
// everything after a pattern that matched nothing.
type Node struct {
	// Op names the operator ("scan", "filter", "join", "group", ...).
	Op string `json:"op"`
	// Detail is the operator's human-readable argument (the pattern text,
	// the filter expression, the join kind).
	Detail string `json:"detail,omitempty"`
	// Est is the planner's estimated output rows; -1 when not estimated.
	Est float64 `json:"est"`
	// Actual is the measured output rows of a tracked execution; -1 when
	// not recorded.
	Actual   int64   `json:"actual"`
	Children []*Node `json:"children,omitempty"`
}

// NewNode returns a leaf node with no estimate and no recorded actual.
func NewNode(op, detail string) *Node {
	return &Node{Op: op, Detail: detail, Est: -1, Actual: -1}
}

// Add appends children and returns n for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Record stores the measured output cardinality.
func (n *Node) Record(rows int) {
	if n != nil {
		n.Actual = int64(rows)
	}
}

// CopyActuals takes over the recorded actuals of src, a tree of the same
// shape: an operator whose output was reused from src's evaluation reports
// what that evaluation measured.
func (n *Node) CopyActuals(src *Node) {
	n.Actual = src.Actual
	for i, c := range n.Children {
		c.CopyActuals(src.Children[i])
	}
}

// Format renders the tree as indented text, one operator per line:
//
//	op detail  (est=…, actual=…)
//
// Estimates print in compact %.3g form so golden plans stay stable across
// platforms; unrecorded actuals print as "-".
func (n *Node) Format() string {
	var sb strings.Builder
	n.format(&sb, 0)
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.Op)
	if n.Detail != "" {
		sb.WriteByte(' ')
		sb.WriteString(n.Detail)
	}
	if n.Est >= 0 || n.Actual >= 0 {
		sb.WriteString("  (")
		if n.Est >= 0 {
			fmt.Fprintf(sb, "est=%.3g", n.Est)
		} else {
			sb.WriteString("est=-")
		}
		if n.Actual >= 0 {
			fmt.Fprintf(sb, ", actual=%d", n.Actual)
		} else {
			sb.WriteString(", actual=-")
		}
		sb.WriteByte(')')
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		c.format(sb, depth+1)
	}
}
