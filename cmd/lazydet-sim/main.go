// Command lazydet-sim runs declarative open-loop simulation grids: the
// experiment-grid front end for internal/opensim.
//
//	lazydet-sim -grid bench/ci-grid.json                  # timestamped output folder
//	lazydet-sim -grid sweep.json -out runs/try3           # fixed output folder
//
// The output folder holds the resolved grid config (grid.json), the run
// report (report.json), the merged deterministic summary
// (<grid>-summary.csv — two runs of the same grid are byte-identical, the
// CI determinism check), the machine-dependent timing twin
// (<grid>-timing.csv, excluded from byte-diffs by design), and with
// per_request_csv the raw per-cell stamp dumps under cells/.
//
// The interpreter cells of bench/ci-grid.json are also rows of
// internal/harness/testdata/fingerprints.json, where every deterministic
// metric of their run reports is pinned exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lazydet/internal/core"
	"lazydet/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code so every deferred
// cleanup (the CPU profile's flush above all) runs before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-sim", flag.ExitOnError)
	grid := fs.String("grid", "", "grid config file (JSON; see bench/ci-grid.json)")
	out := fs.String("out", "", "output folder (default sim-runs/<UTC timestamp>)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the grid run to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	fs.Parse(args)

	if *grid == "" {
		fs.Usage()
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
	if err := simulate(*grid, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
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
