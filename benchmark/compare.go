package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

// boundSpec is one end-to-end metric with its regression bound.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median
}

// Verdicts of one workload × metric row.
const (
	verdictSame       = "no change"
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"          // worse by more than the bound
	verdictPairedLoss = "REGRESSION in pairs" // inside the bound, but lost by the pairing rule
	verdictUnresolved = "unresolved"
	verdictTooFew     = "too few pairs"
)

// The pairing rule: one side must win at least pairedWinShare of all pairs
// run, of which there must be at least pairedMinPairs.
const (
	pairedWinShare = 0.9
	pairedMinPairs = 10
)

// comparison is one row of the -compare report.
type comparison struct {
	metric                     string
	pairs, wins, losses        int
	parentMedian, changeMedian float64
	parentSpread, changeSpread float64
	worseBy                    float64 // share of the parent's median; negative is better
	verdict                    string
}

// compareMetric applies the bound and the pairing rule to one metric's
// paired values. A change median worse than the parent's by more than the
// bound is a regression, whatever the pairs say. When either side's spread
// exceeds the bound the runs cannot resolve a difference of that size, and
// the row says so instead of "no change". Otherwise the pairing rule
// decides, the same way in both directions: one side wins at least nine
// tenths of all pairs (ties count for neither) and the medians differ by
// more than the parent's own inter-quartile distance. Won by the change
// that is a gain; won by the parent it is a regression the bound is too wide
// to see. With fewer than ten pairs the rule cannot be met — one pair has no
// quartile distance at all — and the row says "too few pairs".
func compareMetric(spec boundSpec, parent, change []float64) comparison {
	c := comparison{metric: spec.Name, pairs: len(parent)}
	sign := 1.0 // +1 when larger is worse
	if spec.Better == "higher" {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			c.wins++
		case d > 0:
			c.losses++
		}
	}
	c.parentMedian, c.changeMedian = median(parent), median(change)
	c.parentSpread, c.changeSpread = spread(parent), spread(change)
	if c.parentMedian != 0 {
		c.worseBy = sign * (c.changeMedian - c.parentMedian) / math.Abs(c.parentMedian)
	}
	q1, q3 := quartiles(parent)
	apart := math.Abs(c.changeMedian-c.parentMedian) > q3-q1
	decided := func(n int) bool { return apart && float64(n) >= pairedWinShare*float64(c.pairs) }
	switch {
	case c.worseBy > spec.Bound:
		c.verdict = verdictRegression
	case c.parentSpread > spec.Bound || c.changeSpread > spec.Bound:
		c.verdict = verdictUnresolved
	case !decided(c.wins) && !decided(c.losses):
		c.verdict = verdictSame
	case c.pairs < pairedMinPairs:
		c.verdict = verdictTooFew
	case decided(c.wins):
		c.verdict = verdictGain
	default:
		c.verdict = verdictPairedLoss
	}
	return c
}

// runCompare reads result files given as parent/change pairs, groups the
// pairs by workload, and reports one row per workload × end-to-end metric.
// It returns the process exit code: 1 on a regression, by the bound or in
// pairs, or more failed ops than the parent; 2 on unusable input, which
// includes a pair measured on two datasets or schedules.
func runCompare(boundsPath string, files []string, w io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	if len(files) == 0 || len(files)%2 != 0 {
		return fail(fmt.Errorf("want result files as parent/change pairs, got %d files", len(files)))
	}
	var spec benchSpec
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", boundsPath, err))
	}

	type side struct{ parent, change []*result }
	byWorkload := map[string]*side{}
	for i := 0; i < len(files); i += 2 {
		parent, err := readResult(files[i])
		if err != nil {
			return fail(err)
		}
		change, err := readResult(files[i+1])
		if err != nil {
			return fail(err)
		}
		if parent.Workload != change.Workload || parent.Trace || change.Trace {
			return fail(fmt.Errorf("%s and %s are not measured runs of one workload", files[i], files[i+1]))
		}
		if parent.Env.Seed != change.Env.Seed || !sameData(parent.Env, change.Env) {
			return fail(fmt.Errorf("%s and %s did not run the same schedule on the same data (seed, scale, data_seed, triples)", files[i], files[i+1]))
		}
		s := byWorkload[parent.Workload]
		if s == nil {
			s = &side{}
			byWorkload[parent.Workload] = s
		} else if !sameData(s.parent[0].Env, parent.Env) {
			return fail(fmt.Errorf("%s was measured on other data than the earlier %s pairs (scale, data_seed, triples)", files[i], parent.Workload))
		}
		s.parent, s.change = append(s.parent, parent), append(s.change, change)
	}
	names := make([]string, 0, len(byWorkload))
	for name := range byWorkload {
		names = append(names, name)
	}
	sort.Strings(names)

	status := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\twins\tlosses\tparent median\tchange median\tworse by\tbound\tparent spread\tchange spread\tverdict")
	for _, name := range names {
		s := byWorkload[name]
		for _, m := range spec.EndToEnd {
			parent, change := metricValues(s.parent, m.Name), metricValues(s.change, m.Name)
			if len(parent) != len(s.parent) || len(change) != len(s.change) {
				return fail(fmt.Errorf("%s: a result file lacks metric %s", name, m.Name))
			}
			c := compareMetric(m, parent, change)
			if c.verdict == verdictRegression || c.verdict == verdictPairedLoss {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				name, m.Name, c.pairs, c.wins, c.losses, c.parentMedian, m.Unit, c.changeMedian, m.Unit,
				100*c.worseBy, 100*m.Bound, 100*c.parentSpread, 100*c.changeSpread, c.verdict)
		}
		// Failures have no bound: any increase is a regression.
		pf, pa := failedOps(s.parent)
		cf, ca := failedOps(s.change)
		verdict := verdictSame
		if cf*pa > pf*ca {
			verdict, status = verdictRegression, 1
		}
		fmt.Fprintf(tw, "%s\tfailed ops\t%d\t\t\t%d of %d\t%d of %d\t\tany\t\t\t%s\n", name, len(s.parent), pf, pa, cf, ca, verdict)
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	return status
}

// sameData reports whether two runs worked on the same generated dataset.
func sameData(a, b envInfo) bool {
	return a.Scale == b.Scale && a.DataSeed == b.DataSeed && a.Triples == b.Triples
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" {
		return nil, fmt.Errorf("%s: not a benchmark result file", path)
	}
	return &r, nil
}

func metricValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedOps(rs []*result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}
