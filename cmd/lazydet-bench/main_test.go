package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestErrorExitFlushesCPUProfile: a grid that fails to load after profiling
// started still returns through the deferred stop, so the CPU profile on disk
// is complete — non-empty and gzip-framed.
func TestErrorExitFlushesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.out")
	code := run([]string{"-grid", filepath.Join(dir, "absent.json"), "-cpuprofile", prof})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		t.Fatalf("CPU profile is %d bytes and not gzip-framed", len(b))
	}
}

// TestUsageErrors: an unknown experiment, -exp together with -grid, and
// neither of them are usage errors (exit 2) that run nothing.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nosuch"},
		{"-exp", "fig1", "-grid", "x"},
		{},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%q: exit code %d, want 2", args, code)
		}
	}
}

// TestGridIsByteIdentical: two runs of the checked-in CI grid write
// byte-identical deterministic CSVs — the summary and every per-cell stamp
// dump (the timing CSV is machine-dependent by design and not compared).
func TestGridIsByteIdentical(t *testing.T) {
	dirs := [2]string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for _, dir := range dirs {
		if code := run([]string{"-grid", filepath.Join("..", "..", "bench", "ci-grid.json"), "-csv", dir}); code != 0 {
			t.Fatalf("-csv %s: exit code %d, want 0", dir, code)
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*-summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := filepath.Glob(filepath.Join(dirs[0], "cells", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(cells) == 0 {
		t.Fatalf("grid wrote %d summary and %d cell CSVs, want 1 and some", len(files), len(cells))
	}
	for _, a := range append(files, cells...) {
		rel, err := filepath.Rel(dirs[0], a)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(filepath.Join(dirs[1], rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa, wb) {
			t.Errorf("%s differs between two runs of the same grid", rel)
		}
	}
}
