package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json -compare reads: each metric's
// direction and, for the end-to-end ones, the bound by which it may worsen.
type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readReports reads a -out file: one report per line.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rep := new(report)
		if err := json.Unmarshal(sc.Bytes(), rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		reps = append(reps, rep)
	}
	return reps, sc.Err()
}

// side is one set's runs of one (workload, metric): a value per run, keyed
// by seed for the exact comparison, plus the within-run quartiles, which
// stand in for the spread when the set holds a single run.
type side struct {
	bySeed map[uint64]float64
	values []float64
	within float64 // (q3-q1)/value of the last run
}

func (s *side) add(seed uint64, m summary) {
	if s.bySeed == nil {
		s.bySeed = map[uint64]float64{}
	}
	s.bySeed[seed] = m.Value
	s.values = append(s.values, m.Value)
	if m.Value != 0 {
		s.within = (m.Q3 - m.Q1) / m.Value
	}
}

// spread is the set's interquartile range as a share of its median: across
// runs when there are several, within the run when there is one.
func (s *side) spread() float64 {
	if len(s.values) < 2 {
		return s.within
	}
	q1, med, q3 := quartiles(s.values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

type verdict string

const (
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictBetter     verdict = "better"
	verdictUnresolved verdict = "unresolved" // spread wider than the bound
	verdictInfo       verdict = "-"          // per-layer metric: no bound
)

// judge compares set b against set a on one metric, read against its bound:
// a median that moved by more than the bound is worse or better, a spread
// wider than the bound makes the row unresolved rather than same.
func judge(m contractMetric, a, b *side) (verdict, float64) {
	ma, mb := median(a.values), median(b.values)
	change := 0.0
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	if m.Bound == nil {
		return verdictInfo, change
	}
	switch bound := *m.Bound; {
	case worse > bound:
		return verdictWorse, change
	case -worse > bound:
		return verdictBetter, change
	case a.spread() > bound || b.spread() > bound:
		return verdictUnresolved, change
	}
	return verdictSame, change
}

// sameBySeed reports whether every seed both sets ran gave the same value:
// what two sets of one commit owe on the deterministic metrics.
func sameBySeed(a, b *side) bool {
	for seed, va := range a.bySeed {
		if vb, ok := b.bySeed[seed]; ok && vb != va {
			return false
		}
	}
	return true
}

// compareFiles prints one row per (workload, metric) of two result sets and
// reports whether b is acceptable against a: nothing worse, nothing failed.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	c, err := readContract(boundsPath)
	if err != nil {
		return false, err
	}
	repsA, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	repsB, err := readReports(pathB)
	if err != nil {
		return false, err
	}

	type key struct {
		workload, metric string
	}
	sides := map[key]*[2]side{}
	var failed [2]int64
	var attempted [2]int64
	for i, reps := range [2][]*report{repsA, repsB} {
		for _, rep := range reps {
			failed[i] += rep.Failed
			attempted[i] += rep.Attempted
			for name, m := range rep.Metrics {
				k := key{rep.Workload, name}
				if sides[k] == nil {
					sides[k] = new([2]side)
				}
				sides[k][i].add(rep.Seed, m)
			}
		}
	}

	ok := true
	fmt.Fprintf(w, "a = %s (%d runs), b = %s (%d runs)\n", pathA, len(repsA), pathB, len(repsB))
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, group := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
		for _, spec := range workloadSpecs {
			for _, m := range group {
				s := sides[key{spec.name, m.Name}]
				if s == nil || len(s[0].values) == 0 || len(s[1].values) == 0 {
					continue
				}
				v, change := judge(m, &s[0], &s[1])
				if v == verdictWorse {
					ok = false
				}
				note := ""
				if exactMetrics[m.Name] {
					note = ", exact"
					if !sameBySeed(&s[0], &s[1]) {
						note = ", NOT exact"
					}
				}
				bound := "-"
				if m.Bound != nil {
					bound = fmt.Sprintf("%.2f", *m.Bound)
				}
				fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %6s  %s%s\n",
					spec.name, m.Name, median(s[0].values), median(s[1].values),
					100*change, 100*s[0].spread(), 100*s[1].spread(), bound, v, note)
			}
		}
	}
	for i, name := range []string{"a", "b"} {
		fmt.Fprintf(w, "failed_share %s: %d failed of %d attempted\n", name, failed[i], attempted[i])
		if failed[i] > 0 {
			ok = false
		}
	}
	var names []string
	for k := range sides {
		if len(sides[k][0].values) == 0 || len(sides[k][1].values) == 0 {
			names = append(names, k.workload+"/"+k.metric)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "in one set only: %v\n", names)
	}
	if ok {
		fmt.Fprintln(w, "verdict: b is no worse than a on any bounded metric")
	} else {
		fmt.Fprintln(w, "verdict: b is WORSE than a (or an operation failed)")
	}
	return ok, nil
}
