package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// The -quick mode end to end — every workload, both passes, tiny sizes, one
// round — so that `go test ./...` keeps the benchmark compiling and correct.
// It checks the instrument, not the numbers.
func TestQuickMode(t *testing.T) {
	start := time.Now()
	for _, spec := range workloadSpecs {
		for trace, rep := range []*report{
			endToEndPass(spec, 1, quickSizes, 0, 1),
			tracedPass(io.Discard, spec, 1, quickSizes, 0, 1, ""),
		} {
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v, %d failed of %d: %v", spec.name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			var line bytes.Buffer
			if err := printResultLine(&line, rep); err != nil {
				t.Errorf("%s trace %d: %v", spec.name, trace, err)
				continue
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s trace %d: result line is not JSON: %v", spec.name, trace, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := got[k]; !ok {
					t.Errorf("%s trace %d: result line lacks %q", spec.name, trace, k)
				}
			}
			if len(got) != 4 {
				t.Errorf("%s trace %d: result line has %d keys, want exactly 4", spec.name, trace, len(got))
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, d.name, rep.Metrics[d.name].Value)
					}
				}
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Logf("quick mode took %v (5 s is the target on the reference box)", d)
	}
}

// BENCHMARK.json at the repository root is the contract; the tables in
// metrics.go and workloads.go are what the program runs and prints. They must
// agree.
func TestContractMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		contract
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadSpecs))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadSpecs[i].name {
			t.Errorf("workload %d: contract %s, program %s", i, w.Name, workloadSpecs[i].name)
		}
	}
	check := func(kind string, want []metricDef, got []contractMetric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: contract {%s, %s}, program {%s, %s}", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd, true)
	check("per_layer", perLayer, c.PerLayer, false)
	for name := range exactMetrics {
		found := false
		for _, d := range endToEnd {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("exact metric %s is not an end-to-end metric", name)
		}
	}
}
