package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sampleReport() *SuiteReport {
	return &SuiteReport{
		Schema: ReportSchema,
		Suite:  "unit",
		Runs: []RunReport{
			{
				Workload: "ht", Engine: "LazyDet", Threads: 4,
				HeapHash: "00000000deadbeef",
				Metrics: map[string]float64{
					"dlc.total":           1000,
					"vheap.words_scanned": 500,
					"spec.success_pct":    90,
				},
				Timing: map[string]float64{"wall_ns": 1e6},
				Histograms: map[string]HistSnapshot{
					"vheap.commit_words": {N: 3, Sum: 12, Buckets: map[string]int64{"4": 3}},
				},
			},
			{
				Workload: "ht", Engine: "Consequence", Threads: 4,
				Metrics: map[string]float64{"dlc.total": 2000},
			},
		},
	}
}

// TestReportRoundTrip: encode → decode is lossless and encoding is
// deterministic byte-for-byte.
func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var a, b bytes.Buffer
	if err := rep.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same report differ")
	}

	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, a.Bytes()) {
		t.Fatal("WriteFile differs from Encode")
	}
	var got SuiteReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Key() != "ht/LazyDet/t4" {
		t.Fatalf("round trip lost runs: %+v", got)
	}
	if got.Runs[0].Metrics["dlc.total"] != 1000 {
		t.Fatalf("round trip lost metrics: %v", got.Runs[0].Metrics)
	}
	if got.Runs[0].Histograms["vheap.commit_words"].Buckets["4"] != 3 {
		t.Fatalf("round trip lost histograms: %v", got.Runs[0].Histograms)
	}
	if err := rep.WriteFile(filepath.Join(t.TempDir(), "absent", "r.json")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
