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
