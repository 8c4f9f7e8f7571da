// Command lazydet-run executes one workload under one engine and prints
// everything the runtime can measure: wall time, commit counts, speculation
// statistics, CPU utilization and determinism fingerprints.
//
//	lazydet-run -workload ht -engine lazydet -threads 8
//	lazydet-run -workload barnes -engine consequence -threads 16 -trace
//	lazydet-run -workload ht -engine lazydet -report run.json
//	lazydet-run -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lazydet/internal/core"
	"lazydet/internal/harness"
	"lazydet/internal/telemetry"
	"lazydet/internal/workloads"
)

// writeHeapProfile writes an allocation profile of the run to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation statistics
	return pprof.WriteHeapProfile(f)
}

func engineByName(name string) (harness.EngineKind, error) {
	switch strings.ToLower(name) {
	case "pthreads":
		return harness.Pthreads, nil
	case "consequence":
		return harness.Consequence, nil
	case "weak", "totalorder-weak":
		return harness.TotalOrderWeak, nil
	case "weak-nondet", "totalorder-weak-nondet":
		return harness.TotalOrderWeakNondet, nil
	case "lazydet":
		return harness.LazyDet, nil
	}
	return 0, fmt.Errorf("unknown engine %q (pthreads, consequence, weak, weak-nondet, lazydet)", name)
}

func buildWorkload(name string, scale int) (*harness.Workload, error) {
	switch name {
	case "ht", "htlazy":
		cfg := workloads.DefaultHTConfig(workloads.HTVariant(name))
		return workloads.NewHashTable(cfg), nil
	}
	if g := workloads.ByName(name); g != nil {
		return g.New(scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code so every deferred
// cleanup (the CPU profile's flush above all) runs before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-run", flag.ExitOnError)
	workload := fs.String("workload", "ht", "workload name (see -list)")
	engine := fs.String("engine", "lazydet", "engine: pthreads, consequence, weak, weak-nondet, lazydet")
	threads := fs.Int("threads", 8, "simulated thread count")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	trace := fs.Bool("trace", false, "record and print determinism fingerprints")
	compiled := fs.Bool("compiled", false, "run the threaded-code backend instead of the interpreter")
	reportPath := fs.String("report", "", "write a single-run structured JSON run report to this file")
	list := fs.Bool("list", false, "list workloads and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	fs.Parse(args)

	if *list {
		fmt.Println("ht htlazy (Synchrobench microbenchmarks)")
		for _, g := range workloads.All() {
			fmt.Println(g.Name)
		}
		return 0
	}

	ek, err := engineByName(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale %d: the problem-size multiplier must be at least 1\n", *scale)
		return 2
	}
	w, err := buildWorkload(*workload, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	opt := harness.Options{
		Engine: ek, Threads: *threads, Trace: *trace,
		MeasureTimes: true, CollectSpec: ek == harness.LazyDet,
		CountLocks: ek == harness.Pthreads,
		Compiled:   *compiled,
		Telemetry:  *reportPath != "",
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
	res, err := harness.Run(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	fmt.Printf("workload:    %s (scale %d)\n", w.Name, *scale)
	backend := "interpreter"
	if *compiled {
		backend = "threaded code"
	}
	fmt.Printf("engine:      %s, %d threads, %s backend\n", ek, *threads, backend)
	fmt.Printf("wall time:   %v\n", res.Wall)
	fmt.Printf("utilization: %.1f%%\n", res.UtilizationPct)
	if res.Commits > 0 {
		fmt.Printf("heap:        %d commits, %d pages, %d words (%d scanned)\n",
			res.Commits, res.PagesCommitted, res.WordsCommitted, res.WordsScanned)
	}
	if res.Spec != nil && res.Spec.Runs.Load() > 0 {
		fmt.Printf("speculation: %.1f%% of %d acquisitions; %d runs, %.1f%% committed, mean %.1f CS/run (%d extended past the floor)\n",
			res.Spec.SpecAcquirePct(), res.Spec.TotalAcquires.Load(),
			res.Spec.Runs.Load(), res.Spec.SuccessPct(), res.Spec.MeanRunCS(), res.Spec.ExtendedRuns.Load())
		fmt.Printf("             %d reverts, %d irrevocable upgrades\n",
			res.Spec.Reverts.Load(), res.Spec.Upgrades.Load())
	}
	if res.Counter != nil {
		s := res.Counter.Summarize()
		fmt.Printf("locks:       %d variables, %d acquisitions (p50 %d, p75 %d, p95 %d, max %d)\n",
			s.Variables, s.Acquisitions, s.P50, s.P75, s.P95, s.Max)
	}
	if *trace {
		fmt.Printf("trace:       sig %016x over %d sync events; heap %016x\n",
			res.TraceSig, res.SyncEvents, res.HeapHash)
	}
	if *reportPath != "" {
		suite := &telemetry.SuiteReport{
			Schema: telemetry.ReportSchema,
			Suite:  "single",
			Runs:   []telemetry.RunReport{harness.BuildReport(res)},
		}
		if err := suite.WriteFile(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("report:      %s\n", *reportPath)
	}
	return 0
}
