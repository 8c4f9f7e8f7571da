package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sideOf(values ...float64) *side {
	s := new(side)
	for i, v := range values {
		s.add(uint64(i+1), exact("s", v))
	}
	return s
}

func TestJudge(t *testing.T) {
	bound := 0.10
	lower := contractMetric{Name: "x.wall_s", Better: "lower", Bound: &bound}
	higher := contractMetric{Name: "x.throughput", Better: "higher", Bound: &bound}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * k
		}
		return out
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name string
		m    contractMetric
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, tight, scaled(1.05), verdictSame},
		{"slower beyond the bound", lower, tight, scaled(1.2), verdictWorse},
		{"faster beyond the bound", lower, tight, scaled(0.8), verdictBetter},
		{"higher is better: a drop is worse", higher, tight, scaled(0.8), verdictWorse},
		{"higher is better: a rise is better", higher, tight, scaled(1.2), verdictBetter},
		{"spread wider than the bound", lower, wide, wide, verdictUnresolved},
		{"no bound: per-layer metric", contractMetric{Better: "lower"}, tight, scaled(2), verdictInfo},
	} {
		if got, _ := judge(c.m, sideOf(c.a...), sideOf(c.b...)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// One run per set: the run's own quartiles are the spread.
	one := new(side)
	one.add(1, summary{Value: 1, Q1: 0.8, Q3: 1.2, N: 15})
	if got, _ := judge(lower, one, one); got != verdictUnresolved {
		t.Errorf("single noisy run: verdict %q, want unresolved", got)
	}

	if !sameBySeed(sideOf(5, 6, 7), sideOf(5, 6, 7)) || sameBySeed(sideOf(5, 6, 7), sideOf(5, 6, 8)) {
		t.Error("sameBySeed does not compare seed by seed")
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, dlc float64, failed int64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			rep := &report{Workload: "own-lock", Seed: seed, Attempted: 10, Failed: failed, Metrics: map[string]summary{
				"lazydet.wall_s":    exact("s", wall*(1+float64(seed)/1000)),
				"lazydet.dlc_total": exact("DLC", dlc+float64(seed)),
				"core.lock_ns":      exact("ns", 100),
			}}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	contractJSON, _ := json.Marshal(map[string]any{
		"end_to_end": []map[string]any{
			{"name": "lazydet.wall_s", "unit": "s", "better": "lower", "bound": 0.1},
			{"name": "lazydet.dlc_total", "unit": "DLC", "better": "lower", "bound": 0.01},
		},
		"per_layer": []map[string]any{{"name": "core.lock_ns", "unit": "ns", "better": "lower"}},
	})
	if err := os.WriteFile(bounds, contractJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", 1.0, 1000, 0)

	for _, c := range []struct {
		name   string
		b      string
		ok     bool
		expect []string
	}{
		{"same commit", write("same.jsonl", 1.02, 1000, 0), true, []string{"same, exact", "no worse"}},
		{"slower", write("slow.jsonl", 1.3, 1000, 0), false, []string{"worse", "WORSE"}},
		{"different logical time", write("dlc.jsonl", 1.0, 1001, 0), true, []string{"NOT exact"}},
		{"a failed operation", write("fail.jsonl", 1.0, 1000, 1), false, []string{"3 failed of 30", "WORSE"}},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, bounds, a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		for _, want := range c.expect {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q\n%s", c.name, want, out.String())
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
