package main

import "sort"

// summary is a metric's value over the rounds of one run, the quartiles of
// the rounds and the sample count. The value is the median, except for a
// host-time metric, where it is the fastest round (see fastest). A
// deterministic metric has one sample, checked equal on every round.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces samples to median and quartiles.
func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// fastest reduces host-time samples to their minimum, with the quartiles of
// all rounds kept beside it. The process runs on one P, so whatever else the
// host does can only add time to a round: the fastest of a run's rounds is
// the one the host disturbed least, and it is what repeats from run to run
// (README.md, "What the host does to the numbers").
func fastest(unit string, samples []float64) summary {
	s := summarize(unit, samples)
	for _, v := range samples {
		s.Value = min(s.Value, v)
	}
	return s
}

// exact is the summary of a value that repeats exactly.
func exact(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default exclusive method), which is
// what the acceptance rule for this benchmark is stated in. Fewer than two
// samples have no spread: all three are the sample (or 0).
func quartiles(samples []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}
