package harness_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/telemetry"
	"lazydet/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// specRun executes the 2-thread hash-table workload under LazyDet with span
// recording on — the configuration the golden trace pins down.
func specRun(t *testing.T) *harness.Result {
	t.Helper()
	w := workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HT))
	res, err := harness.Run(w, harness.Options{
		Engine: harness.LazyDet, Threads: 2, TelemetrySpans: true, CollectSpec: true, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChromeTraceGolden: a speculative 2-thread run exports a byte-identical
// Chrome trace across runs, and that trace matches the checked-in golden
// file — the spans are stamped in DLC time, so neither scheduling nor the
// machine may show through. Regenerate with: go test ./internal/harness
// -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	export := func() []byte {
		res := specRun(t)
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, res.Telemetry, "ht/LazyDet/t2"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same spec exported different traces")
	}

	golden := filepath.Join("testdata", "chrometrace_ht_lazydet_t2.json")
	if *updateGolden {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("trace differs from golden file %s (len %d vs %d); if the span "+
			"layout changed intentionally, regenerate with -update", golden, len(a), len(want))
	}
}

// TestBuildReportDeterministic: deterministic metrics and histograms of two
// identical runs agree exactly; nondeterministic timing lives only in the
// Timing section.
func TestBuildReportDeterministic(t *testing.T) {
	r1 := harness.BuildReport(specRun(t))
	r2 := harness.BuildReport(specRun(t))
	if len(r1.Metrics) == 0 {
		t.Fatal("report has no deterministic metrics")
	}
	for name, v1 := range r1.Metrics {
		if v2, ok := r2.Metrics[name]; !ok || v1 != v2 {
			t.Errorf("metric %s: %v vs %v", name, v1, r2.Metrics[name])
		}
	}
	if len(r1.Metrics) != len(r2.Metrics) {
		t.Errorf("metric sets differ: %d vs %d", len(r1.Metrics), len(r2.Metrics))
	}
	if r1.HeapHash != r2.HeapHash || r1.TraceSig != r2.TraceSig {
		t.Error("fingerprints differ between identical runs")
	}
	for name, h1 := range r1.Histograms {
		h2 := r2.Histograms[name]
		if h1.N != h2.N || h1.Sum != h2.Sum {
			t.Errorf("histogram %s: n/sum %d/%d vs %d/%d", name, h1.N, h1.Sum, h2.N, h2.Sum)
		}
	}
	for _, want := range []string{"dlc.total", "turn.waits", "vheap.commits", "vheap.words_committed", "mempipe.publishes", "spec.runs", "sync.events"} {
		if _, ok := r1.Metrics[want]; !ok {
			t.Errorf("report missing metric %s (have %v)", want, r1.Metrics)
		}
	}
	if _, ok := r1.Timing["wall_ns"]; !ok {
		t.Error("report missing wall_ns timing")
	}
	if v := r1.Metrics["vheap.live_versions"]; v <= 0 {
		t.Errorf("report metric vheap.live_versions = %v, want the heap's live version count", v)
	}
	if _, ok := r1.Timing["vheap.live_versions"]; ok {
		t.Error("vheap.live_versions is timing; every view re-bases and closes at a turn, so it is a metric")
	}
}

// TestTelemetryCountersMatchResult: the registry's heap counters agree with
// the Result fields they absorb, so the two reporting paths cannot drift.
func TestTelemetryCountersMatchResult(t *testing.T) {
	res := specRun(t)
	tel := res.Telemetry
	if tel == nil {
		t.Fatal("telemetry not recorded")
	}
	checks := map[string]int64{
		"vheap.commits":         res.Commits,
		"vheap.pages_committed": res.PagesCommitted,
		"vheap.words_committed": res.WordsCommitted,
		"vheap.words_scanned":   res.WordsScanned,
		"sync.events":           res.SyncEvents,
		"spec.runs":             res.Spec.Runs.Load(),
		"spec.reverts":          res.Spec.Reverts.Load(),
	}
	for name, want := range checks {
		if got := tel.Counter(name); got != want {
			t.Errorf("%s = %d, want %d (Result field)", name, got, want)
		}
	}
	if got, want := tel.Gauge("spec.success_pct"), res.Spec.SuccessPct(); got != want {
		t.Errorf("spec.success_pct = %v, want %v", got, want)
	}
}

// TestTelemetryDisabledByDefault: without the option nothing is recorded and
// no recorder is attached.
func TestTelemetryDisabledByDefault(t *testing.T) {
	w := workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HT))
	res, err := harness.Run(w, harness.Options{Engine: harness.LazyDet, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry recorded without being enabled")
	}
}
