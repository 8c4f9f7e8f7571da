package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestErrorExitFlushesCPUProfile: a run that fails after profiling started
// (here the allocation profile cannot be created) still returns through the
// deferred stop, so the CPU profile on disk is complete — non-empty and
// gzip-framed, as pprof writes it only when profiling stops.
func TestErrorExitFlushesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.out")
	code := run([]string{"-workload", "ht", "-engine", "consequence", "-threads", "2",
		"-cpuprofile", prof, "-memprofile", filepath.Join(dir, "missing", "mem.out")})
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

// TestRejectsNonPositiveScale: a problem-size multiplier below 1 is a usage
// error (exit 2), not a panic inside the workload or the heap constructor.
func TestRejectsNonPositiveScale(t *testing.T) {
	for _, c := range []struct{ workload, scale string }{
		{"radix", "-1"},
		{"barnes", "-1"},
		{"ferret", "0"},
	} {
		if code := run([]string{"-workload", c.workload, "-scale", c.scale, "-threads", "2"}); code != 2 {
			t.Errorf("-workload %s -scale %s: exit code %d, want 2", c.workload, c.scale, code)
		}
	}
}
