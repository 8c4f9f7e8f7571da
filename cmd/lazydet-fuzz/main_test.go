package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = saved }()
	f()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTwoSeedsPass: a small clean run checks every property on two seeds,
// exits 0 and ends with the summary line.
func TestTwoSeedsPass(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-seeds", "2", "-threads", "4", "-ops", "20", "-invariants"})
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "ok: 2 seeds × 5 engines") || !strings.Contains(out, "zero invariant violations") {
		t.Fatalf("no ok: summary line in output:\n%s", out)
	}
}

// TestUnknownFlagIsUsageError: a flag the command does not define is a usage
// error (exit 2); the fuzzer must not start. -compiled, -nohints and -vet
// must stay unknown: the interpreter is the only backend, and properties 5, 6
// and 9 always run.
func TestUnknownFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag", "1"},
		{"-compiled"},
		{"-nohints"},
		{"-vet=false"},
	} {
		var code int
		out := captureStdout(t, func() { code = run(args) })
		if code != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, code)
		}
		if strings.Contains(out, "ok:") {
			t.Fatalf("%v: fuzzer ran despite the usage error:\n%s", args, out)
		}
	}
}
