// Command lazydet-bench regenerates the tables and figures of the paper's
// evaluation (-exp), and runs declarative open-loop simulation grids, the
// experiment-grid front end for internal/opensim (-grid). Examples:
//
//	lazydet-bench -exp fig7            # the hash-table sweeps
//	lazydet-bench -exp table1          # lock statistics
//	lazydet-bench -exp all -quick      # everything, shrunk sweeps
//	lazydet-bench -exp fig8 -reps 5    # the paper's repetition count
//	lazydet-bench -grid bench/ci-grid.json               # timestamped output folder
//	lazydet-bench -grid sweep.json -csv runs/try3        # fixed output folder
//
// A grid's output folder holds the resolved grid config (grid.json), the run
// report (report.json), the merged deterministic summary
// (<grid>-summary.csv — two runs of the same grid are byte-identical, the
// CI determinism check), the machine-dependent timing twin
// (<grid>-timing.csv, excluded from byte-diffs by design), and with
// per_request_csv the raw per-cell stamp dumps under cells/.
//
// Deterministic behaviour is pinned elsewhere: every deterministic metric of
// a run report is compared exactly by TestPinnedFingerprints
// (internal/harness/testdata/fingerprints.json), the cells of
// bench/ci-grid.json included, and wall time is measured by benchmark/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lazydet/internal/core"
	"lazydet/internal/experiments"
)

// experiment is one table or figure -exp selects by name.
type experiment struct {
	name string
	run  func(experiments.Config) error
}

// exps lists every experiment in the order -exp all runs them.
var exps = []experiment{
	{"table1", experiments.Table1},
	{"fig1", experiments.Fig1},
	{"fig7", experiments.Fig7},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"table2", experiments.Table2},
	{"fig12", experiments.Fig12},
	{"versions", experiments.Versions},
	{"arbsweep", experiments.ArbiterSweep},
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code so every deferred
// cleanup (the CPU profile's flush above all) runs before the process exits.
func run(args []string) int {
	var names []string
	for _, e := range exps {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet("lazydet-bench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment to regenerate: "+strings.Join(names, ", ")+", or all")
	grid := fs.String("grid", "", "run this grid config file (JSON; see bench/ci-grid.json) into the -csv folder")
	reps := fs.Int("reps", 3, "repetitions per data point (paper: 5)")
	threads := fs.Int("threads", 0, "override the experiment's thread count")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	csvDir := fs.String("csv", "", "also write each experiment's rows as CSV files into this directory; with -grid, the output folder (default sim-runs/<UTC timestamp>)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if (*exp == "") == (*grid == "") {
		fmt.Fprintln(os.Stderr, "give exactly one of -exp and -grid")
		fs.Usage()
		return 2
	}
	var jobs []experiment
	for _, e := range exps {
		if *exp == e.name || *exp == "all" {
			jobs = append(jobs, e)
		}
	}
	if *exp != "" && len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "no such experiment: %q (have %s, all)\n", *exp, strings.Join(names, ", "))
		return 2
	}

	if *cpuprofile != "" {
		stop, err := core.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *grid != "" {
		if err := simulate(*grid, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	cfg := experiments.Config{
		Out:     os.Stdout,
		Reps:    *reps,
		Threads: *threads,
		Scale:   *scale,
		Quick:   *quick,
		CSVDir:  *csvDir,
	}
	for _, j := range jobs {
		if err := j.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

// simulate runs the grid config at path into the output folder dir.
func simulate(path, dir string) error {
	g, err := experiments.LoadGrid(path)
	if err != nil {
		return err
	}
	if dir == "" {
		dir = filepath.Join("sim-runs", time.Now().UTC().Format("20060102T150405Z"))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The resolved config rides along with the results, so a folder is
	// self-describing and re-runnable.
	resolved, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "grid.json"), append(resolved, '\n'), 0o644); err != nil {
		return err
	}

	suite, err := experiments.RunGrid(experiments.Config{Out: os.Stdout, CSVDir: dir}, g)
	if err != nil {
		return err
	}
	if err := suite.WriteFile(filepath.Join(dir, "report.json")); err != nil {
		return err
	}
	fmt.Printf("wrote %d cell runs to %s\n", len(suite.Runs), dir)
	return nil
}
