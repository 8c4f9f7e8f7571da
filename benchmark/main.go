// Command benchmark is the repository's one performance yardstick: engine
// wall time, DLC-time latency and an outside-in cost ledger per layer, on six
// seeded workloads. README.md is the manual; BENCHMARK.json (repository root)
// is the contract it is run under.
//
//	benchmark --workload ht-fine --seed 1 --seconds 12 --trace 0 [--out set.jsonl]
//	benchmark --quick [--workload ht-fine]
//	benchmark --compare a.jsonl b.jsonl [--bounds BENCHMARK.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ht-fine, own-lock, hot-lock, stencil-bulk, sim-open, compute (with -quick: empty runs all)")
		seed     = flag.Uint64("seed", 1, "seed of every plan array")
		seconds  = flag.Float64("seconds", 12, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		out      = flag.String("out", "", "append the run's full report (medians, quartiles, n) to this JSON-lines file")
		quick    = flag.Bool("quick", false, "tiny sizes, one round, both passes: a smoke test of the instrument, not a measurement")
		spans    = flag.String("spans", "", "with -trace 1: write the last traced run's spans to this CSV file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, applying BENCHMARK.json's bounds")
		bounds   = flag.String("bounds", "BENCHMARK.json", "with -compare: the file holding each metric's direction and bound")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes exactly two result files")
		}
		ok, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace must be 0 or 1")
	}

	// The run protocol: one P drives the 4 simulated threads, so a turn
	// hand-off is a goroutine switch inside the Go scheduler, never a futex
	// wake across the few vCPUs of a shared host (README.md, "What the host
	// does to the numbers"), and nothing else runs in the process.
	runtime.GOMAXPROCS(1)

	specs := workloadSpecs
	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		specs = []workloadSpec{s}
	} else if !*quick {
		fatal("-workload is required (or -quick to smoke-test all six)")
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var last *report
	for _, spec := range specs {
		var reps []*report
		switch {
		case *quick:
			reps = []*report{
				endToEndPass(spec, *seed, quickSizes, 0, 1),
				tracedPass(os.Stdout, spec, *seed, quickSizes, 0, 1, *spans),
			}
		case *trace == 0:
			reps = []*report{endToEndPass(spec, *seed, defaultSizes, budget, 0)}
		default:
			reps = []*report{tracedPass(os.Stdout, spec, *seed, defaultSizes, budget, 0, *spans)}
		}
		for _, rep := range reps {
			printReport(os.Stdout, rep)
			if *out != "" {
				if err := appendReport(*out, rep); err != nil {
					fatal("%v", err)
				}
			}
			if rep.Trace == *trace {
				last = rep
			}
		}
	}
	if err := printResultLine(os.Stdout, last); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printReport prints every metric of the report by name with its unit.
func printReport(w io.Writer, rep *report) {
	pass := "end-to-end pass (tracing off; times are the fastest round)"
	if rep.Trace == 1 {
		pass = "traced pass (per-layer metrics, LazyDet; medians over rounds)"
	}
	fmt.Fprintf(w, "== %s seed %d: %s, %d rounds, GOMAXPROCS %d\n",
		rep.Workload, rep.Seed, pass, rep.Rounds, rep.GOMAXPROCS)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		if m.N > 1 {
			fmt.Fprintf(w, "%-34s %16.6g %-8s [rounds: q1 %.6g, q3 %.6g, n %d]\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g fraction (%d failed of %d attempted)\n", "failed_share", share, rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

// printResultLine prints the contract's last line: exactly correct,
// attempted, failed and metrics, each metric cut to value and unit. A pass
// that could not produce one of its metrics has no result to print.
func printResultLine(w io.Writer, rep *report) error {
	defs := endToEnd
	if rep.Trace == 1 {
		defs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: no sample of %s (every run of an engine failed: %v)", rep.Workload, d.name, rep.Failures)
		}
		metrics[d.name] = valueUnit{m.Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
