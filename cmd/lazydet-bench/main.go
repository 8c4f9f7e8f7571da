// Command lazydet-bench regenerates the tables and figures of the paper's
// evaluation. Examples:
//
//	lazydet-bench -fig 7            # the hash-table sweeps
//	lazydet-bench -table 1          # lock statistics
//	lazydet-bench -all -quick       # everything, shrunk sweeps
//	lazydet-bench -fig 8 -reps 5    # the paper's repetition count
//
// It is also the perf-gate front end: -report runs the report suite and
// writes a structured JSON run report; -baseline diffs it against a previous
// report, failing (exit 1) when a gated deterministic metric regresses more
// than -gate percent; -compare diffs two existing report files without
// running anything.
//
//	lazydet-bench -report new.json
//	lazydet-bench -report new.json -baseline bench/baseline.json -gate 25
//	lazydet-bench -compare new.json -baseline old.json -gate 15
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lazydet/internal/core"
	"lazydet/internal/experiments"
	"lazydet/internal/telemetry"
)

// diffReports loads both reports, prints the comparison, and returns the
// process exit code: 0 when the gate passes, 1 when it fails.
func diffReports(basePath, curPath string, gatePct float64) int {
	base, err := telemetry.ReadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cur, err := telemetry.ReadReport(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	c := telemetry.Compare(base, cur, gatePct)
	c.Format(os.Stdout)
	if !c.Ok() {
		fmt.Printf("perf gate FAILED: %d regression(s), %d missing run(s) (gate %.1f%%)\n",
			len(c.Regressions), len(c.MissingRuns), gatePct)
		return 1
	}
	fmt.Printf("perf gate passed (gate %.1f%%)\n", gatePct)
	return 0
}

func main() {
	fig := flag.Int("fig", 0, "regenerate figure N (1, 7, 8, 9, 10, 11, 12)")
	table := flag.Int("table", 0, "regenerate table N (1, 2)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	versions := flag.Bool("versions", false, "run the §4.2 version-count experiment")
	arbsweep := flag.Bool("arbsweep", false, "run the arbiter-cost-vs-threads sweep (the tournament tree's scaling curve)")
	dispatchsweep := flag.Bool("dispatchsweep", false, "run the dispatch-cost sweep (interpreter vs threaded code vs direct, per program shape)")
	compiled := flag.Bool("compiled", false, "run the deterministic engines on the threaded-code backend; with -report and -baseline, the interpreter baseline's gated metrics act as the differential oracle")
	reps := flag.Int("reps", 3, "repetitions per data point (paper: 5)")
	threads := flag.Int("threads", 0, "override the experiment's thread count")
	scale := flag.Int("scale", 1, "workload problem-size multiplier")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	csvDir := flag.String("csv", "", "also write each experiment's rows as CSV files into this directory")
	report := flag.String("report", "", "run the report suite and write a structured JSON run report to this file")
	baseline := flag.String("baseline", "", "baseline report to diff against (with -report or -compare)")
	gate := flag.Float64("gate", 0, "fail when a gated deterministic metric regresses more than this percent against -baseline; 0 reports without failing")
	compare := flag.String("compare", "", "diff this existing report file against -baseline without running anything")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		core.EnableProfileLabels()
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
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
		Out:      os.Stdout,
		Reps:     *reps,
		Threads:  *threads,
		Scale:    *scale,
		Quick:    *quick,
		CSVDir:   *csvDir,
		Compiled: *compiled,
	}

	if *compare != "" {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "-compare requires -baseline")
			os.Exit(2)
		}
		os.Exit(diffReports(*baseline, *compare, *gate))
	}
	if *report != "" {
		suite, err := experiments.ReportSuite(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := suite.WriteFile(*report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d runs to %s\n", len(suite.Runs), *report)
		if *baseline != "" {
			os.Exit(diffReports(*baseline, *report, *gate))
		}
		return
	}

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
			os.Exit(2)
		}
		add(fmt.Sprintf("figure %d", *fig), f)
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "no such table: %d (have 1, 2)\n", *table)
			os.Exit(2)
		}
		add(fmt.Sprintf("table %d", *table), f)
	case *versions:
		add("versions", experiments.Versions)
	case *arbsweep:
		add("arbsweep", experiments.ArbiterSweep)
	case *dispatchsweep:
		add("dispatchsweep", experiments.DispatchSweep)
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, j := range jobs {
		if err := j.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
