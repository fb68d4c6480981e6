package dataframe

import (
	"fmt"

	"rdfframes/internal/rdf"
)

// AggFn names an aggregation function, matching the paper's operator set.
type AggFn string

// Aggregation functions supported by GroupBy and Aggregate.
const (
	Count  AggFn = "count"
	Sum    AggFn = "sum"
	Avg    AggFn = "avg"
	Min    AggFn = "min"
	Max    AggFn = "max"
	Sample AggFn = "sample"
)

// Grouped is a dataframe partitioned by key columns, awaiting aggregation.
type Grouped struct {
	src    *DataFrame
	keys   []string
	order  []string // group keys in first-seen order
	groups map[string][]int
}

// GroupBy partitions the dataframe by the given key columns.
func (df *DataFrame) GroupBy(keys ...string) (*Grouped, error) {
	for _, k := range keys {
		if !df.HasColumn(k) {
			return nil, fmt.Errorf("dataframe: unknown grouping column %q", k)
		}
	}
	g := &Grouped{src: df, keys: keys, groups: map[string][]int{}}
	for i := 0; i < df.Len(); i++ {
		key := df.key(i, keys)
		if _, ok := g.groups[key]; !ok {
			g.order = append(g.order, key)
		}
		g.groups[key] = append(g.groups[key], i)
	}
	return g, nil
}

// AggSpec describes one aggregation over a grouped frame.
type AggSpec struct {
	Fn       AggFn
	Col      string // source column ("" allowed only for Count)
	As       string // result column name
	Distinct bool   // count distinct values
}

// Aggregate computes the given aggregations per group, returning a frame
// with the key columns plus one column per spec.
func (g *Grouped) Aggregate(specs ...AggSpec) (*DataFrame, error) {
	cols := append([]string(nil), g.keys...)
	for _, s := range specs {
		if s.Col != "" && !g.src.HasColumn(s.Col) {
			return nil, fmt.Errorf("dataframe: unknown aggregation column %q", s.Col)
		}
		cols = append(cols, s.As)
	}
	out := New(cols...)
	for _, key := range g.order {
		rows := g.groups[key]
		r := make([]rdf.Term, 0, len(cols))
		for _, k := range g.keys {
			r = append(r, g.src.Cell(rows[0], k))
		}
		for _, s := range specs {
			v, err := aggregateRows(g.src, rows, s)
			if err != nil {
				return nil, err
			}
			r = append(r, v)
		}
		out.Append(r)
	}
	return out, nil
}

// Aggregate computes a whole-frame aggregate (the paper's aggregate
// operator), returning a one-row, one-column frame.
func (df *DataFrame) Aggregate(fn AggFn, col, as string, distinct bool) (*DataFrame, error) {
	if col != "" && !df.HasColumn(col) {
		return nil, fmt.Errorf("dataframe: unknown column %q", col)
	}
	rows := make([]int, df.Len())
	for i := range rows {
		rows[i] = i
	}
	v, err := aggregateRows(df, rows, AggSpec{Fn: fn, Col: col, As: as, Distinct: distinct})
	if err != nil {
		return nil, err
	}
	out := New(as)
	out.Append([]rdf.Term{v})
	return out, nil
}

func aggregateRows(df *DataFrame, rows []int, s AggSpec) (rdf.Term, error) {
	var values []rdf.Term
	for _, i := range rows {
		var v rdf.Term
		if s.Col != "" {
			v = df.Cell(i, s.Col)
			if !v.IsBound() {
				continue
			}
		} else {
			v = rdf.NewInteger(1)
		}
		values = append(values, v)
	}
	if s.Distinct {
		seen := map[rdf.Term]bool{}
		uniq := values[:0]
		for _, v := range values {
			if !seen[v] {
				seen[v] = true
				uniq = append(uniq, v)
			}
		}
		values = uniq
	}
	switch s.Fn {
	case Count:
		return rdf.NewInteger(int64(len(values))), nil
	case Sum, Avg:
		sum := 0.0
		allInt := true
		for _, v := range values {
			f, ok := v.AsFloat()
			if !ok {
				return rdf.Term{}, fmt.Errorf("dataframe: %s over non-numeric value %s", s.Fn, v)
			}
			if v.Datatype != rdf.XSDInteger {
				allInt = false
			}
			sum += f
		}
		if s.Fn == Avg {
			if len(values) == 0 {
				return rdf.NewInteger(0), nil
			}
			return rdf.NewDecimal(sum / float64(len(values))), nil
		}
		if allInt {
			return rdf.NewInteger(int64(sum)), nil
		}
		return rdf.NewDecimal(sum), nil
	case Min, Max:
		if len(values) == 0 {
			return rdf.Term{}, nil
		}
		best := values[0]
		for _, v := range values[1:] {
			c := rdf.Compare(v, best)
			if s.Fn == Min && c < 0 || s.Fn == Max && c > 0 {
				best = v
			}
		}
		return best, nil
	case Sample:
		if len(values) == 0 {
			return rdf.Term{}, nil
		}
		return values[0], nil
	}
	return rdf.Term{}, fmt.Errorf("dataframe: unknown aggregation %q", s.Fn)
}
