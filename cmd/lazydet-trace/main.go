// Command lazydet-trace is the determinism-debugging tool: it runs a
// workload twice under an engine with full synchronization-event logging
// and reports whether the two executions are identical — and if not, the
// first point of divergence in each thread's event stream.
//
// Deterministic engines must always report identical runs; the
// nondeterministic engines show where executions actually diverge, which is
// exactly the reproducibility problem DMT systems eliminate.
//
// With -chrometrace, run A's per-thread timeline — turn waits, speculation
// runs, commits and reverts, stamped in deterministic logical clock (DLC)
// time rather than wall time — is exported as a Chrome-tracing/Perfetto JSON
// file (load it at chrome://tracing or ui.perfetto.dev). Because the
// timestamps are DLC ticks, a deterministic engine exports a byte-identical
// trace on every run of the same spec.
//
//	lazydet-trace -workload ht -engine lazydet -threads 8
//	lazydet-trace -workload ht -engine weak-nondet -threads 8
//	lazydet-trace -workload ferret -engine lazydet -dump 20
//	lazydet-trace -workload ht -engine lazydet -chrometrace trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lazydet/internal/harness"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/workloads"
)

func main() {
	workload := flag.String("workload", "ht", "workload name")
	engine := flag.String("engine", "lazydet", "engine: pthreads, consequence, weak, weak-nondet, lazydet")
	threads := flag.Int("threads", 8, "simulated thread count")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	dump := flag.Int("dump", 0, "print the first N events of each thread of run A")
	chrome := flag.String("chrometrace", "", "export run A's per-thread DLC-time spans as Chrome-tracing JSON to this file")
	flag.Parse()

	var ek harness.EngineKind
	switch strings.ToLower(*engine) {
	case "pthreads":
		ek = harness.Pthreads
	case "consequence":
		ek = harness.Consequence
	case "weak", "totalorder-weak":
		ek = harness.TotalOrderWeak
	case "weak-nondet", "totalorder-weak-nondet":
		ek = harness.TotalOrderWeakNondet
	case "lazydet":
		ek = harness.LazyDet
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(2)
	}
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale %d: the problem-size multiplier must be at least 1\n", *scale)
		os.Exit(2)
	}

	var w *harness.Workload
	switch *workload {
	case "ht", "htlazy":
		w = workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HTVariant(*workload)))
	default:
		g := workloads.ByName(*workload)
		if g == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		w = g.New(*scale)
	}

	opt := harness.Options{Engine: ek, Threads: *threads, LogEvents: true, TelemetrySpans: *chrome != ""}
	runA, err := harness.Run(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runB, err := harness.Run(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("workload %s under %s, %d threads\n", w.Name, ek, *threads)
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		proc := fmt.Sprintf("%s/%s/t%d", w.Name, ek, *threads)
		if err := telemetry.WriteChromeTrace(f, runA.Telemetry, proc); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace (run A, DLC timebase): %s\n", *chrome)
	}
	fmt.Printf("run A: %d sync events, trace %016x, memory %016x\n", runA.SyncEvents, runA.TraceSig, runA.HeapHash)
	fmt.Printf("run B: %d sync events, trace %016x, memory %016x\n", runB.SyncEvents, runB.TraceSig, runB.HeapHash)

	if *dump > 0 {
		for tid := 0; tid < *threads; tid++ {
			log := runA.Recorder.ThreadLog(tid)
			n := *dump
			if n > len(log) {
				n = len(log)
			}
			fmt.Printf("thread %d (run A, first %d of %d):\n", tid, n, len(log))
			for i := 0; i < n; i++ {
				fmt.Printf("  %4d %s\n", i, log[i])
			}
		}
	}

	divs := trace.DiffLogs(runA.Recorder, runB.Recorder)
	switch {
	case len(divs) == 0 && runA.HeapHash == runB.HeapHash:
		fmt.Println("runs are IDENTICAL: every thread's synchronization stream and the final memory match")
		if !ek.Deterministic() {
			fmt.Println("(note: this engine makes no guarantee — identical runs can still be luck)")
		}
	case len(divs) == 0:
		fmt.Println("synchronization streams match but final memory differs (data race outside sync order)")
		os.Exit(1)
	default:
		fmt.Printf("runs DIVERGE in %d thread stream(s); first divergences:\n", len(divs))
		for _, d := range divs {
			fmt.Printf("  %s\n", d)
		}
		if ek.Deterministic() {
			fmt.Println("ERROR: a deterministic engine diverged — this is a bug")
			os.Exit(1)
		}
	}
}
