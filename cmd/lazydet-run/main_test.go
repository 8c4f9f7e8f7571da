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
