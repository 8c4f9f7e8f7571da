// Command lazydet-vet runs the internal/progcheck static analyzer over dvm
// program sets: per-thread control-flow graphs, a forward abstract
// interpretation of lock/barrier state, cross-program deadlock cycles,
// static data-race candidates, and per-lock critical-section footprints —
// the speculation-hint verdicts (disjoint / conflicting / unknown) that
// harness.Options.SpecHints feeds back into the LazyDet engine. The open-loop service simulation's program set is vetted too
// (target "opensim"), so its hint verdicts are visible and pinned the same
// way as the benchmark workloads'.
//
//	lazydet-vet -all                    # vet every built-in workload
//	lazydet-vet -workload barnes        # vet one workload
//	lazydet-vet -workload opensim       # vet the service simulation's programs
//	lazydet-vet -litmus                 # run the known-bad corpus
//	lazydet-vet -all -json              # machine-readable reports
//	lazydet-vet -all -werror            # exit nonzero on warnings too
//
// Exit status: 0 when every analyzed set is clean, 1 when any set has
// error-severity findings (or warnings under -werror), 2 on usage errors.
// Litmus targets also fail on drift between the analyzer's verdicts — the
// finding classes or the speculation hints — and the corpus expectations.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"lazydet/internal/dvm"
	"lazydet/internal/opensim"
	"lazydet/internal/progcheck"
	"lazydet/internal/workloads"
)

// target is one named program set to analyze.
type target struct {
	name  string
	progs []*dvm.Program
	// want lists the finding classes a litmus target must produce; nil for
	// workloads, which must be clean.
	want []progcheck.Class
	// wantHints pins the litmus target's speculation verdicts when non-nil.
	wantHints map[int64]progcheck.SpecVerdict
	isLitmus  bool
}

// jsonReport is the machine-readable per-target output.
type jsonReport struct {
	Target        string                          `json:"target"`
	Report        *progcheck.Report               `json:"report"`
	Expected      []progcheck.Class               `json:"expected,omitempty"`
	ExpectedHints map[int64]progcheck.SpecVerdict `json:"expected_hints,omitempty"`
	Verdict       string                          `json:"verdict"` // "clean", "findings", "as-expected", "mismatch"
}

func buildTargets(workload string, all, litmus bool, threads, scale int) ([]target, error) {
	var ts []target
	if litmus {
		for _, c := range progcheck.Litmus() {
			ts = append(ts, target{name: "litmus/" + c.Name, progs: c.Build(), want: c.Want, wantHints: c.WantHints, isLitmus: true})
		}
		return ts, nil
	}
	var gens []workloads.Gen
	switch {
	case all:
		gens = append([]workloads.Gen{*workloads.ByName("ht"), *workloads.ByName("htlazy")}, workloads.All()...)
	case workload == "":
		return nil, fmt.Errorf("one of -workload, -all or -litmus is required")
	case workload != "opensim":
		g := workloads.ByName(workload)
		if g == nil {
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		gens = append(gens, *g)
	}
	for _, g := range gens {
		ts = append(ts, target{name: g.Name, progs: g.New(scale).Programs(threads)})
	}
	if all || workload == "opensim" {
		ts = append(ts, target{name: "opensim", progs: opensim.VetPrograms(opensim.Config{Workers: threads - 1}, threads)})
	}
	return ts, nil
}

// classesEqual compares sorted class slices.
func classesEqual(a, b []progcheck.Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hintsMatch reports whether the report's speculation verdicts equal the
// litmus expectation exactly; a nil expectation leaves them unchecked.
func hintsMatch(rep *progcheck.Report, want map[int64]progcheck.SpecVerdict) bool {
	if want == nil {
		return true
	}
	got := map[int64]progcheck.SpecVerdict{}
	if rep.Hints != nil {
		for l, v := range rep.Hints.Verdicts {
			got[l] = v
		}
	}
	if len(got) != len(want) {
		return false
	}
	for l, v := range want {
		if got[l] != v {
			return false
		}
	}
	return true
}

// verdict classifies a target's report: a litmus target is "as-expected"
// when the finding classes and the speculation hints both match the corpus
// expectation and "mismatch" when either drifts, in either direction; a
// workload is "clean" or has "findings".
func verdict(t target, rep *progcheck.Report) string {
	switch {
	case t.isLitmus && classesEqual(rep.Classes(), t.want) && hintsMatch(rep, t.wantHints):
		return "as-expected"
	case t.isLitmus:
		return "mismatch"
	case len(rep.Findings) > 0:
		return "findings"
	}
	return "clean"
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-vet", flag.ContinueOnError)
	workload := fs.String("workload", "", "vet one workload's programs: a lazydet-run workload name, or opensim")
	all := fs.Bool("all", false, "vet every built-in workload")
	litmus := fs.Bool("litmus", false, "run the known-bad litmus corpus and check expected verdicts")
	threads := fs.Int("threads", 8, "thread count the program set is built for")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	jsonOut := fs.Bool("json", false, "emit one JSON object per target instead of human-readable reports")
	werror := fs.Bool("werror", false, "treat warn-severity findings as failures")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale %d: the problem-size multiplier must be at least 1\n", *scale)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "-threads %d: a program set needs at least one thread\n", *threads)
		return 2
	}
	targets, err := buildTargets(*workload, *all, *litmus, *threads, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	failed := false
	for _, t := range targets {
		rep := progcheck.Check(t.progs)
		v := verdict(t, rep)
		bad := rep.CountBySeverity(progcheck.SevError) > 0 ||
			*werror && rep.CountBySeverity(progcheck.SevWarn) > 0
		if v == "mismatch" || !t.isLitmus && bad {
			failed = true
		}

		if *jsonOut {
			if err := enc.Encode(jsonReport{Target: t.name, Report: rep, Expected: t.want, ExpectedHints: t.wantHints, Verdict: v}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			continue
		}
		fmt.Printf("== %s ==\n", t.name)
		if t.isLitmus {
			fmt.Printf("expected: %v, verdict: %s\n", t.want, v)
		}
		fmt.Print(rep.Human())
		fmt.Println()
	}
	if failed {
		return 1
	}
	return 0
}
