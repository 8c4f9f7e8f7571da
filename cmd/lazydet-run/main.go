// Command lazydet-run executes one workload under one engine and prints
// everything the runtime can measure: wall time, commit counts, speculation
// statistics, CPU utilization and determinism fingerprints.
//
// With -trace it is also the determinism-debugging tool: the workload runs
// twice with full synchronization-event logging, and the command reports
// whether the two executions are identical — and if not, the first point of
// divergence in each thread's event stream. Deterministic engines must
// always report identical runs; the nondeterministic engines show where
// executions actually diverge, which is exactly the reproducibility problem
// DMT systems eliminate.
//
// With -chrometrace, run A's per-thread timeline — turn waits, speculation
// runs, commits and reverts, stamped in deterministic logical clock (DLC)
// time rather than wall time — is exported as a Chrome-tracing/Perfetto JSON
// file (load it at chrome://tracing or ui.perfetto.dev). Because the
// timestamps are DLC ticks, a deterministic engine exports a byte-identical
// trace on every run of the same spec.
//
//	lazydet-run -workload ht -engine lazydet -threads 8
//	lazydet-run -workload ht -engine weak-nondet -threads 8 -trace
//	lazydet-run -workload ferret -engine lazydet -trace -dump 20
//	lazydet-run -workload ht -engine lazydet -chrometrace trace.json
//	lazydet-run -workload ht -engine lazydet -report run.json
//
// An unknown -workload lists every workload name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lazydet/internal/core"
	"lazydet/internal/harness"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
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

// writeChromeTrace exports res's DLC-stamped spans to path.
func writeChromeTrace(path string, res *harness.Result, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, res.Telemetry, process); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	if g := workloads.ByName(name); g != nil {
		return g.New(scale), nil
	}
	names := []string{string(workloads.HT), string(workloads.HTLazy)}
	for _, g := range workloads.All() {
		names = append(names, g.Name)
	}
	return nil, fmt.Errorf("unknown workload %q; have %s", name, strings.Join(names, " "))
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code so every deferred
// cleanup (the CPU profile's flush above all) runs before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-run", flag.ContinueOnError)
	workload := fs.String("workload", "ht", "workload name (an unknown name lists them all)")
	engine := fs.String("engine", "lazydet", "engine: pthreads, consequence, weak, weak-nondet, lazydet")
	threads := fs.Int("threads", 8, "simulated thread count")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	traced := fs.Bool("trace", false, "run twice with full event logging and diff the two runs' synchronization streams and final memory")
	dump := fs.Int("dump", 0, "print the first N logged events of each thread of run A")
	chrome := fs.String("chrometrace", "", "export run A's per-thread DLC-time spans as Chrome-tracing JSON to this file")
	reportPath := fs.String("report", "", "write a single-run structured JSON run report to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file; samples carry engine-phase pprof labels (grant/commit/validate)")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
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
		Engine: ek, Threads: *threads,
		LogEvents:    *traced || *dump > 0,
		MeasureTimes: true, CollectSpec: ek == harness.LazyDet,
		CountLocks:     ek == harness.Pthreads,
		Telemetry:      *reportPath != "",
		TelemetrySpans: *chrome != "",
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
	fmt.Printf("engine:      %s, %d threads\n", ek, *threads)
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
	if *chrome != "" {
		if err := writeChromeTrace(*chrome, res, fmt.Sprintf("%s/%s/t%d", w.Name, ek, *threads)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("chrome trace (run A, DLC timebase): %s\n", *chrome)
	}
	if *dump > 0 {
		for tid := 0; tid < *threads; tid++ {
			log := res.Recorder.ThreadLog(tid)
			n := min(*dump, len(log))
			fmt.Printf("thread %d (run A, first %d of %d):\n", tid, n, len(log))
			for i := 0; i < n; i++ {
				fmt.Printf("  %4d %s\n", i, log[i])
			}
		}
	}
	if !*traced {
		return 0
	}

	resB, err := harness.Run(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("run A:       %d sync events, trace %016x, memory %016x\n", res.SyncEvents, res.TraceSig, res.HeapHash)
	fmt.Printf("run B:       %d sync events, trace %016x, memory %016x\n", resB.SyncEvents, resB.TraceSig, resB.HeapHash)
	divs := trace.DiffLogs(res.Recorder, resB.Recorder)
	switch {
	case len(divs) == 0 && res.HeapHash == resB.HeapHash:
		fmt.Println("runs are IDENTICAL: every thread's synchronization stream and the final memory match")
		if !ek.Deterministic() {
			fmt.Println("(note: this engine makes no guarantee — identical runs can still be luck)")
		}
	case len(divs) == 0:
		fmt.Println("synchronization streams match but final memory differs (data race outside sync order)")
		return 1
	default:
		fmt.Printf("runs DIVERGE in %d thread stream(s); first divergences:\n", len(divs))
		for _, d := range divs {
			fmt.Printf("  %s\n", d)
		}
		if ek.Deterministic() {
			fmt.Println("ERROR: a deterministic engine diverged — this is a bug")
			return 1
		}
	}
	return 0
}
