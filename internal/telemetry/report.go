// Run reports: the structured JSON account of one or more runs that
// lazydet-run (-report) and lazydet-bench -grid emit.
//
// A report separates metrics by reproducibility class:
//
//   - Metrics are deterministic: counts and ratios in DLC/commit space that
//     two runs of a deterministic engine on the same spec must reproduce
//     exactly, on any machine. That is what lets a checked-in file pin them:
//     internal/harness/testdata/fingerprints.json holds the whole Metrics
//     map of every pinned run and TestPinnedFingerprints compares it exactly.
//   - Timing is machine-dependent: wall/CPU time, utilization, blocked
//     time, revert-cost nanosecond percentiles. Reported, never pinned.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReportSchema versions the report file format.
const ReportSchema = 1

// RunReport is the account of one (workload, engine, threads) run.
type RunReport struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Threads  int    `json:"threads"`
	// HeapHash fingerprints the final shared memory (hex). Deterministic
	// for deterministic engines; informational.
	HeapHash string `json:"heap_hash,omitempty"`
	// TraceSig fingerprints the synchronization order (hex).
	TraceSig string `json:"trace_sig,omitempty"`
	// Metrics are the deterministic, pinnable measurements.
	Metrics map[string]float64 `json:"metrics"`
	// Timing is machine-dependent and never pinned.
	Timing map[string]float64 `json:"timing,omitempty"`
	// Histograms are deterministic fixed-layout distributions.
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Key names the run: <workload>/<engine>/t<threads>.
func (r *RunReport) Key() string {
	return fmt.Sprintf("%s/%s/t%d", r.Workload, r.Engine, r.Threads)
}

// SuiteReport is a set of runs written as one report file.
type SuiteReport struct {
	Schema int         `json:"schema"`
	Suite  string      `json:"suite"`
	Runs   []RunReport `json:"runs"`
}

// Encode writes the report as deterministic, indented JSON: struct fields in
// declaration order, map keys sorted (encoding/json's map behavior), runs in
// the order recorded.
func (s *SuiteReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the report to path.
func (s *SuiteReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
