// Command lazydet-bench regenerates the tables and figures of the paper's
// evaluation. Examples:
//
//	lazydet-bench -fig 7            # the hash-table sweeps
//	lazydet-bench -table 1          # lock statistics
//	lazydet-bench -all -quick       # everything, shrunk sweeps
//	lazydet-bench -fig 8 -reps 5    # the paper's repetition count
//
// Deterministic behaviour is pinned elsewhere: every deterministic metric of
// a run report is compared exactly by TestPinnedFingerprints
// (internal/harness/testdata/fingerprints.json), and wall time is measured by
// benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lazydet/internal/core"
	"lazydet/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code so every deferred
// cleanup (the CPU profile's flush above all) runs before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-bench", flag.ExitOnError)
	fig := fs.Int("fig", 0, "regenerate figure N (1, 7, 8, 9, 10, 11, 12)")
	table := fs.Int("table", 0, "regenerate table N (1, 2)")
	all := fs.Bool("all", false, "regenerate every table and figure")
	versions := fs.Bool("versions", false, "run the §4.2 version-count experiment")
	arbsweep := fs.Bool("arbsweep", false, "run the arbiter-cost-vs-threads sweep (the tournament tree's scaling curve)")
	dispatchsweep := fs.Bool("dispatchsweep", false, "run the dispatch-cost sweep (interpreter vs threaded code vs direct, per program shape)")
	reps := fs.Int("reps", 3, "repetitions per data point (paper: 5)")
	threads := fs.Int("threads", 0, "override the experiment's thread count")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	csvDir := fs.String("csv", "", "also write each experiment's rows as CSV files into this directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	fs.Parse(args)

	type job struct {
		name string
		run  func(experiments.Config) error
	}
	var jobs []job
	add := func(name string, run func(experiments.Config) error) {
		jobs = append(jobs, job{name, run})
	}

	figs := map[int]func(experiments.Config) error{
		1: experiments.Fig1, 7: experiments.Fig7, 8: experiments.Fig8,
		9: experiments.Fig9, 10: experiments.Fig10, 11: experiments.Fig11,
		12: experiments.Fig12,
	}
	tables := map[int]func(experiments.Config) error{
		1: experiments.Table1, 2: experiments.Table2,
	}

	switch {
	case *all:
		add("table 1", experiments.Table1)
		add("figure 1", experiments.Fig1)
		add("figure 7", experiments.Fig7)
		add("figure 8", experiments.Fig8)
		add("figure 9", experiments.Fig9)
		add("figure 10", experiments.Fig10)
		add("figure 11", experiments.Fig11)
		add("table 2", experiments.Table2)
		add("figure 12", experiments.Fig12)
		add("versions", experiments.Versions)
		add("arbsweep", experiments.ArbiterSweep)
		add("dispatchsweep", experiments.DispatchSweep)
	case *fig != 0:
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "no such figure: %d (have 1, 7, 8, 9, 10, 11, 12)\n", *fig)
			return 2
		}
		add(fmt.Sprintf("figure %d", *fig), f)
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "no such table: %d (have 1, 2)\n", *table)
			return 2
		}
		add(fmt.Sprintf("table %d", *table), f)
	case *versions:
		add("versions", experiments.Versions)
	case *arbsweep:
		add("arbsweep", experiments.ArbiterSweep)
	case *dispatchsweep:
		add("dispatchsweep", experiments.DispatchSweep)
	default:
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
