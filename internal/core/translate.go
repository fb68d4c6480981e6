package core

import (
	"fmt"
	"strings"
)

// Translate renders a query model as SPARQL text (paper §4.3). Each model
// component maps directly to the corresponding SPARQL construct; inner
// models recurse as subqueries; when patterns span multiple graphs, GRAPH
// blocks scope each pattern subset to its graph.
func Translate(m *QueryModel) (string, error) {
	tr := &translator{multiGraph: len(m.allGraphs()) > 1}
	var sb strings.Builder
	if m.Prefixes != nil {
		for _, b := range m.Prefixes.Bindings() {
			fmt.Fprintf(&sb, "PREFIX %s: <%s>\n", b[0], b[1])
		}
	}
	if err := tr.renderQuery(&sb, m, 0, true); err != nil {
		return "", err
	}
	return sb.String(), nil
}

type translator struct {
	multiGraph bool
}

func (tr *translator) renderQuery(sb *strings.Builder, m *QueryModel, depth int, topLevel bool) error {
	ind := strings.Repeat("  ", depth)
	sb.WriteString(ind)
	sb.WriteString("SELECT ")
	if m.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if err := tr.renderSelectClause(sb, m); err != nil {
		return err
	}
	sb.WriteByte('\n')
	if topLevel {
		for _, g := range m.allGraphs() {
			fmt.Fprintf(sb, "%sFROM <%s>\n", ind, g)
		}
	}
	sb.WriteString(ind)
	sb.WriteString("WHERE {\n")
	if err := tr.renderBody(sb, m, depth+1); err != nil {
		return err
	}
	sb.WriteString(ind)
	sb.WriteString("}")
	if len(m.GroupByCols) > 0 {
		sb.WriteString("\n" + ind + "GROUP BY")
		for _, c := range m.GroupByCols {
			sb.WriteString(" ?" + c)
		}
	}
	for _, h := range m.Having {
		fmt.Fprintf(sb, "\n%sHAVING ( %s )", ind, tr.substituteAggs(h.Expr, m.Aggs))
	}
	if len(m.Order) > 0 {
		sb.WriteString("\n" + ind + "ORDER BY")
		for _, k := range m.Order {
			if k.Desc {
				sb.WriteString(" DESC(?" + k.Col + ")")
			} else {
				sb.WriteString(" ASC(?" + k.Col + ")")
			}
		}
	}
	if m.Limit >= 0 {
		fmt.Fprintf(sb, "\n%sLIMIT %d", ind, m.Limit)
	}
	if m.Offset > 0 {
		fmt.Fprintf(sb, "\n%sOFFSET %d", ind, m.Offset)
	}
	sb.WriteByte('\n')
	return nil
}

// renderSelectClause writes the projection: explicit columns (rendering
// aggregate result columns as (AGG(...) AS ?col)), a synthesized projection
// for grouped models, or *.
func (tr *translator) renderSelectClause(sb *strings.Builder, m *QueryModel) error {
	aggByName := map[string]AggSpec{}
	for _, a := range m.Aggs {
		aggByName[a.New] = a
	}
	vars := m.SelectVars
	if len(vars) == 0 {
		if m.IsGrouped() {
			vars = append(append([]string(nil), m.GroupByCols...), aggNames(m.Aggs)...)
		} else {
			sb.WriteString("*")
			return nil
		}
	}
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if a, ok := aggByName[v]; ok {
			fmt.Fprintf(sb, "(%s AS ?%s)", renderAgg(a), v)
		} else {
			sb.WriteString("?" + v)
		}
	}
	return nil
}

func renderAgg(a AggSpec) string {
	fn := strings.ToUpper(a.Fn)
	if a.Distinct {
		return fmt.Sprintf("%s(DISTINCT ?%s)", fn, a.Src)
	}
	return fmt.Sprintf("%s(?%s)", fn, a.Src)
}

// substituteAggs rewrites references to aggregate result columns inside a
// HAVING expression into the aggregate expressions themselves, since SPARQL
// HAVING cannot reference SELECT aliases (the paper's queries emit
// HAVING ( COUNT(DISTINCT ?movie) >= 50 )).
func (tr *translator) substituteAggs(expr string, aggs []AggSpec) string {
	return replaceVars(expr, func(token string) (string, bool) {
		for _, a := range aggs {
			if a.New == token[1:] {
				return renderAgg(a), true
			}
		}
		return "", false
	})
}

func (tr *translator) renderBody(sb *strings.Builder, m *QueryModel, depth int) error {
	ind := strings.Repeat("  ", depth)

	// Triple patterns, grouped per graph when the query spans multiple
	// graphs.
	if len(m.Triples) > 0 {
		if tr.multiGraph {
			for _, g := range m.graphs() {
				fmt.Fprintf(sb, "%sGRAPH <%s> {\n", ind, g)
				for _, t := range m.Triples {
					if t.Graph == g {
						fmt.Fprintf(sb, "%s  %s .\n", ind, t)
					}
				}
				sb.WriteString(ind)
				sb.WriteString("}\n")
			}
			for _, t := range m.Triples {
				if t.Graph == "" {
					fmt.Fprintf(sb, "%s%s .\n", ind, t)
				}
			}
		} else {
			for _, t := range m.Triples {
				fmt.Fprintf(sb, "%s%s .\n", ind, t)
			}
		}
	}

	for _, sub := range m.SubQueries {
		sb.WriteString(ind)
		sb.WriteString("{\n")
		if err := tr.renderQuery(sb, sub, depth+1, false); err != nil {
			return err
		}
		sb.WriteString(ind)
		sb.WriteString("}\n")
	}

	for i, u := range m.Unions {
		if i > 0 {
			sb.WriteString(ind)
			sb.WriteString("UNION\n")
		}
		sb.WriteString(ind)
		sb.WriteString("{\n")
		if u.isPatternOnly() {
			if err := tr.renderBody(sb, u, depth+1); err != nil {
				return err
			}
		} else {
			if err := tr.renderQuery(sb, u, depth+1, false); err != nil {
				return err
			}
		}
		sb.WriteString(ind)
		sb.WriteString("}\n")
	}

	for _, f := range m.Filters {
		fmt.Fprintf(sb, "%sFILTER ( %s )\n", ind, f.Expr)
	}

	// OPTIONAL blocks render last: a left join applies to everything the
	// group has produced, so an optional expand recorded after a join (or
	// union) must not precede those patterns in the query text.
	for _, opt := range m.Optionals {
		sb.WriteString(ind)
		sb.WriteString("OPTIONAL {\n")
		if opt.isPatternOnly() && !opt.ForceSubquery {
			if err := tr.renderBody(sb, opt, depth+1); err != nil {
				return err
			}
		} else {
			if opt.IsGrouped() && len(opt.SelectVars) == 0 {
				opt.SelectVars = append(append([]string(nil), opt.GroupByCols...), aggNames(opt.Aggs)...)
			}
			if err := tr.renderQuery(sb, opt, depth+1, false); err != nil {
				return err
			}
		}
		sb.WriteString(ind)
		sb.WriteString("}\n")
	}
	return nil
}
