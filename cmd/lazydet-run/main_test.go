package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with *std (os.Stdout or os.Stderr) redirected to a file and
// returns what it printed.
func capture(t *testing.T, std **os.File, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := *std
	*std = out
	defer func() { *std = saved }()
	f()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

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

// TestTraceDiffsTwoIdenticalRuns: -trace runs a deterministic engine twice
// and finds the runs identical; -dump prints run A's event log, and the
// Chrome trace, stamped in DLC time, is byte-identical across invocations.
func TestTraceDiffsTwoIdenticalRuns(t *testing.T) {
	dir := t.TempDir()
	var traces [2][]byte
	for i := range traces {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		var code int
		out := capture(t, &os.Stdout, func() {
			code = run([]string{"-workload", "ht", "-engine", "lazydet", "-threads", "2",
				"-trace", "-dump", "2", "-chrometrace", path})
		})
		if code != 0 {
			t.Fatalf("exit code %d, want 0; output:\n%s", code, out)
		}
		for _, want := range []string{"runs are IDENTICAL", "run B:", "thread 1 (run A, first 2 of"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output lacks %q:\n%s", want, out)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = b
	}
	if len(traces[0]) == 0 || !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("Chrome traces differ across invocations (%d vs %d bytes)", len(traces[0]), len(traces[1]))
	}
}

// TestUnknownWorkloadListsNames: an unknown -workload is a usage error whose
// message names every workload, the hash-table variants included.
func TestUnknownWorkloadListsNames(t *testing.T) {
	var code int
	msg := capture(t, &os.Stderr, func() { code = run([]string{"-workload", "nosuch"}) })
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	for _, name := range []string{"ht", "htlazy", "barnes", "lu_ncb"} {
		if !strings.Contains(msg, " "+name) {
			t.Errorf("error message lacks %q: %s", name, msg)
		}
	}
}
