package core

import (
	"fmt"
	"strings"
)

// NaiveTranslate compiles an operator chain with the naive query generation
// strategy the paper evaluates against: every operator becomes its own
// subquery, and one outer query joins them all at a single level of
// nesting. Grouping wraps everything generated so far in a further nested
// query, as in the paper's Appendices C and D.
//
// One deliberate deviation from Appendix C: an optional expand is emitted
// as OPTIONAL { { SELECT ... } } in the outer query rather than as a plain
// subquery containing a dangling OPTIONAL, because the latter does not
// preserve left-outer-join semantics under composition; the paper verifies
// all alternatives return identical results, which requires this form.
func NaiveTranslate(c *Chain) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	n := &naive{}
	if err := n.run(c.Ops); err != nil {
		return "", err
	}
	var sb strings.Builder
	if c.Prefixes != nil {
		for _, b := range c.Prefixes.Bindings() {
			fmt.Fprintf(&sb, "PREFIX %s: <%s>\n", b[0], b[1])
		}
	}
	sb.WriteString(n.assemble(true))
	return sb.String(), nil
}

type naive struct {
	parts   []string          // rendered group elements of the outer query
	binder  map[string]string // column -> triple pattern text that bound it
	bindCol map[string][]string
	scope   map[string]bool // columns currently visible
	pending []Condition     // filters deferred until their column is visible
	graphs  []string
	proj    []string // final projection (empty = *)
	order   []SortKey
	limit   int
	offset  int
}

func (n *naive) init() {
	if n.binder == nil {
		n.binder = map[string]string{}
		n.bindCol = map[string][]string{}
		n.scope = map[string]bool{}
		n.limit = -1
	}
}

func (n *naive) addGraph(g string) {
	if g == "" {
		return
	}
	for _, have := range n.graphs {
		if have == g {
			return
		}
	}
	n.graphs = append(n.graphs, g)
}

func (n *naive) run(ops []Op) error {
	n.init()
	for _, op := range ops {
		switch o := op.(type) {
		case SeedOp:
			n.addGraph(o.GraphURI)
			pat := fmt.Sprintf("%s %s %s .", o.S, o.P, o.O)
			var cols []string
			for _, nd := range []PatternNode{o.S, o.P, o.O} {
				if nd.IsCol() {
					cols = append(cols, nd.Col)
					n.binder[nd.Col] = pat
				}
			}
			n.bindCol[pat] = cols
			for _, c := range cols {
				n.scope[c] = true
			}
			n.parts = append(n.parts, subquery(cols, pat))

		case ExpandOp:
			n.addGraph(o.GraphURI)
			var pat string
			if o.In {
				pat = fmt.Sprintf("?%s %s ?%s .", o.New, Constant(o.Pred), o.Src)
			} else {
				pat = fmt.Sprintf("?%s %s ?%s .", o.Src, Constant(o.Pred), o.New)
			}
			n.binder[o.New] = pat
			n.bindCol[pat] = []string{o.Src, o.New}
			n.scope[o.New] = true
			sq := subquery([]string{o.Src, o.New}, pat)
			if o.Optional {
				sq = "OPTIONAL {\n" + sq + "\n}"
			}
			n.parts = append(n.parts, sq)

		case FilterOp:
			for _, cond := range o.Conds {
				pat, bound := n.binder[cond.Col]
				switch {
				case bound && varsWithin(cond.Expr, func(v string) bool { return hasString(n.bindCol[pat], v) }):
					// Single-column condition: repeat the binding pattern
					// in its own filtering subquery (Appendix C style).
					body := pat + "\nFILTER ( " + cond.Expr + " )"
					n.parts = append(n.parts, subquery(n.bindCol[pat], body))
				case varsWithin(cond.Expr, func(v string) bool { return n.scope[v] }):
					// Multi-column or subquery-produced condition: a bare
					// filter over the joined result.
					n.parts = append(n.parts, "FILTER ( "+cond.Expr+" )")
				default:
					// Column hidden by grouping; emit once a join brings
					// it back into scope.
					n.pending = append(n.pending, cond)
				}
			}

		case GroupByOp:
			// Consumed together with the following aggregations.

		case AggregationOp, AggregateOp:
			var agg AggSpec
			var groupCols []string
			if a, ok := op.(AggregationOp); ok {
				agg = a.Agg
				groupCols = n.lastGroupCols(ops, op)
			} else {
				agg = op.(AggregateOp).Agg
			}
			inner := strings.Join(n.parts, "\n")
			var sel strings.Builder
			for _, gc := range groupCols {
				sel.WriteString("?" + gc + " ")
			}
			fmt.Fprintf(&sel, "(%s AS ?%s)", renderAgg(agg), agg.New)
			var sq strings.Builder
			sq.WriteString("{\nSELECT " + sel.String() + "\nWHERE {\n" + inner + "\n}")
			if len(groupCols) > 0 {
				sq.WriteString("\nGROUP BY")
				for _, gc := range groupCols {
					sq.WriteString(" ?" + gc)
				}
			}
			sq.WriteString("\n}")
			n.parts = []string{sq.String()}
			// Columns bound inside the group subquery are no longer
			// directly filterable by pattern, and only the grouping and
			// aggregate columns remain in scope.
			n.binder = map[string]string{}
			n.bindCol = map[string][]string{}
			n.scope = map[string]bool{agg.New: true}
			for _, gc := range groupCols {
				n.scope[gc] = true
			}
			if _, ok := op.(AggregateOp); ok {
				n.proj = []string{agg.New}
			}

		case SelectColsOp:
			n.proj = append([]string(nil), o.Cols...)

		case SortOp:
			n.order = append(n.order, o.Keys...)

		case HeadOp:
			n.limit, n.offset = o.K, o.Offset

		case JoinOp:
			right := &naive{}
			if err := right.run(o.Other.Ops); err != nil {
				return err
			}
			for _, g := range right.graphs {
				n.addGraph(g)
			}
			rightBody := strings.Join(right.parts, "\n")
			if o.NewCol != "" {
				n.renameParts(o.Col, o.NewCol)
				rightBody = renameText(rightBody, o.OtherCol, o.NewCol)
			}
			switch o.Type {
			case InnerJoin:
				n.parts = append(n.parts, "{\nSELECT *\nWHERE {\n"+rightBody+"\n}\n}")
			case LeftOuterJoin:
				n.parts = append(n.parts, "OPTIONAL {\n{\nSELECT *\nWHERE {\n"+rightBody+"\n}\n}\n}")
			case RightOuterJoin:
				leftBody := strings.Join(n.parts, "\n")
				n.parts = []string{
					"{\nSELECT *\nWHERE {\n" + rightBody + "\n}\n}",
					"OPTIONAL {\n{\nSELECT *\nWHERE {\n" + leftBody + "\n}\n}\n}",
				}
			case FullOuterJoin:
				leftBody := strings.Join(n.parts, "\n")
				b1 := "{\nSELECT *\nWHERE {\n" + leftBody + "\nOPTIONAL {\n{\nSELECT *\nWHERE {\n" + rightBody + "\n}\n}\n}\n}\n}"
				b2 := "{\nSELECT *\nWHERE {\n" + rightBody + "\nOPTIONAL {\n{\nSELECT *\nWHERE {\n" + leftBody + "\n}\n}\n}\n}\n}"
				n.parts = []string{b1 + "\nUNION\n" + b2}
			}
			// The join may re-expose columns for later filters; merge the
			// right side's binders, scope, and deferred filters.
			for col, pat := range right.binder {
				if _, exists := n.binder[col]; !exists {
					n.binder[col] = pat
					n.bindCol[pat] = right.bindCol[pat]
				}
			}
			for col := range right.scope {
				n.scope[col] = true
			}
			n.pending = append(n.pending, right.pending...)
			var still []Condition
			for _, cond := range n.pending {
				if n.scope[cond.Col] {
					n.parts = append(n.parts, "FILTER ( "+cond.Expr+" )")
				} else {
					still = append(still, cond)
				}
			}
			n.pending = still

		default:
			return fmt.Errorf("core: naive translation: unknown operator %T", op)
		}
	}
	return nil
}

// lastGroupCols finds the grouping columns of the GroupByOp immediately
// preceding the given aggregation in the op list.
func (n *naive) lastGroupCols(ops []Op, agg Op) []string {
	for i, op := range ops {
		if op == agg {
			for j := i - 1; j >= 0; j-- {
				if g, ok := ops[j].(GroupByOp); ok {
					return g.Cols
				}
				if _, ok := ops[j].(AggregationOp); !ok {
					break
				}
			}
		}
	}
	return nil
}

func (n *naive) renameParts(old, new string) {
	for i := range n.parts {
		n.parts[i] = renameText(n.parts[i], old, new)
	}
	if hasString(n.proj, old) {
		for i, p := range n.proj {
			if p == old {
				n.proj[i] = new
			}
		}
	}
}

func (n *naive) assemble(topLevel bool) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(n.proj) == 0 {
		sb.WriteString("*")
	} else {
		for i, c := range n.proj {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString("?" + c)
		}
	}
	sb.WriteByte('\n')
	if topLevel {
		for _, g := range n.graphs {
			fmt.Fprintf(&sb, "FROM <%s>\n", g)
		}
	}
	sb.WriteString("WHERE {\n")
	sb.WriteString(strings.Join(n.parts, "\n"))
	sb.WriteString("\n}")
	if len(n.order) > 0 {
		sb.WriteString("\nORDER BY")
		for _, k := range n.order {
			if k.Desc {
				sb.WriteString(" DESC(?" + k.Col + ")")
			} else {
				sb.WriteString(" ASC(?" + k.Col + ")")
			}
		}
	}
	if n.limit >= 0 {
		fmt.Fprintf(&sb, "\nLIMIT %d", n.limit)
	}
	if n.offset > 0 {
		fmt.Fprintf(&sb, "\nOFFSET %d", n.offset)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func subquery(cols []string, body string) string {
	var sb strings.Builder
	sb.WriteString("{\nSELECT")
	if len(cols) == 0 {
		sb.WriteString(" *")
	}
	for _, c := range cols {
		sb.WriteString(" ?" + c)
	}
	sb.WriteString("\nWHERE {\n")
	sb.WriteString(body)
	sb.WriteString("\n}\n}")
	return sb.String()
}
