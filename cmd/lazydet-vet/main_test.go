package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lazydet/internal/progcheck"
)

var update = flag.Bool("update", false, "rewrite the vet JSON golden")

// TestVetJSONGolden pins the full machine-readable output of
// `lazydet-vet -all -json` plus `-litmus -json` — findings, speculation-hint
// verdicts and witness strings for every built-in workload, the service
// simulation and the litmus corpus. CI diffs this golden, so an analyzer or
// workload change that shifts any verdict must regenerate it deliberately:
// `go test ./cmd/lazydet-vet -update`.
func TestVetJSONGolden(t *testing.T) {
	var all []jsonReport
	for _, group := range []struct {
		litmus bool
	}{{false}, {true}} {
		targets, err := buildTargets("", !group.litmus, group.litmus, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			rep := progcheck.Check(tg.progs)
			// Wall times are machine-dependent; everything else is a pure
			// function of the program sets.
			rep.Stats.AnalysisNs = 0
			rep.Stats.LockstateNs = 0
			rep.Stats.DeadlockNs = 0
			rep.Stats.RaceNs = 0
			rep.Stats.FootprintNs = 0
			verdict := "clean"
			if len(rep.Findings) > 0 {
				verdict = "findings"
			}
			if tg.isLitmus {
				if classesEqual(rep.Classes(), tg.want) && hintsMatch(rep, tg.wantHints) {
					verdict = "as-expected"
				} else {
					verdict = "mismatch"
				}
			}
			all = append(all, jsonReport{
				Target: tg.name, Report: rep,
				Expected: tg.want, ExpectedHints: tg.wantHints,
				Verdict: verdict,
			})
		}
	}
	for _, r := range all {
		if r.Verdict == "mismatch" {
			t.Errorf("%s: analyzer verdict drifted from the litmus expectation", r.Target)
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	for _, r := range all {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "vet.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("vet JSON output drifted from golden (run `go test ./cmd/lazydet-vet -update` to refresh after verifying the new verdicts)")
	}
}

// TestRejectsNonPositiveThreads: a program set built for fewer than one
// thread is a usage error (exit 2) — not a panic while building the
// service simulation's or a workload's programs, and not a vacuous
// "no findings" over zero programs.
func TestRejectsNonPositiveThreads(t *testing.T) {
	for _, c := range []struct{ workload, threads string }{
		{"opensim", "0"},
		{"barnes", "-2"},
		{"ht", "0"},
	} {
		if code := run([]string{"-workload", c.workload, "-threads", c.threads}); code != 2 {
			t.Errorf("-workload %s -threads %s: exit code %d, want 2", c.workload, c.threads, code)
		}
	}
}
