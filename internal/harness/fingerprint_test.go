package harness_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lazydet/internal/core"
	"lazydet/internal/harness"
	"lazydet/internal/randprog"
	"lazydet/internal/workloads"
)

// fingerprint is one pinned run: the schedule (TraceSig), the final memory
// (HeapHash) and the deterministic volume counters that move when a commit
// finds different words or the arbiter grants a different sequence.
type fingerprint struct {
	Run              string `json:"run"`
	TraceSig         string `json:"trace_sig"`
	HeapHash         string `json:"heap_hash"`
	Commits          int64  `json:"commits"`
	WordsCommitted   int64  `json:"words_committed"`
	WordsScanned     int64  `json:"words_scanned"`
	ArbiterChainHits int64  `json:"arbiter_chain_hits"`
}

// TestPinnedFingerprints pins schedules across commits of this repository:
// the golden seeds under every deterministic engine variant at t=4 and t=64,
// plus the hash-table workloads under LazyDet up to t=256, must reproduce
// testdata/fingerprints.json byte for byte. TestGoldenCorpusRunTwice only
// compares a run with itself; this compares it with every earlier commit, so
// a change that moves a schedule shows up as a diff to the file. Regenerate
// (after establishing that the move is intended) with:
// go test ./internal/harness -run TestPinnedFingerprints -update
func TestPinnedFingerprints(t *testing.T) {
	var got []fingerprint
	pin := func(name string, w *harness.Workload, opt harness.Options) *harness.Result {
		opt.Trace = true
		res, err := harness.Run(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, fingerprint{
			Run:              name,
			TraceSig:         fmt.Sprintf("%016x", res.TraceSig),
			HeapHash:         fmt.Sprintf("%016x", res.HeapHash),
			Commits:          res.Commits,
			WordsCommitted:   res.WordsCommitted,
			WordsScanned:     res.WordsScanned,
			ArbiterChainHits: res.ArbiterChainHits,
		})
		return res
	}

	writeAware := core.DefaultSpecConfig()
	writeAware.WriteAware = true
	variants := []struct {
		name string
		opt  harness.Options
	}{
		{"Consequence", harness.Options{Engine: harness.Consequence}},
		{"TotalOrder-Weak", harness.Options{Engine: harness.TotalOrderWeak}},
		{"LazyDet", harness.Options{Engine: harness.LazyDet}},
		{"LazyDet-WriteAware", harness.Options{Engine: harness.LazyDet, Spec: writeAware}},
	}
	for _, threads := range []int{4, 64} {
		cfg := randprog.DefaultConfig(threads)
		cfg.OpsPerThread = 40
		if threads == 64 {
			cfg.OpsPerThread = 16
		}
		for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 42} {
			w, _, err := randprog.Generate(seed, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, va := range variants {
				opt := va.opt
				opt.Threads = threads
				pin(fmt.Sprintf("seed%d/%s/t%d", seed, va.name, threads), w, opt)
			}
		}
	}
	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		for _, threads := range []int{4, 64, 256} {
			pin(fmt.Sprintf("%s/LazyDet/t%d", variant, threads), scaleHT(variant, threads),
				harness.Options{Engine: harness.LazyDet, Threads: threads})
		}
	}

	// Rows where same-owner publication elision is live (commit.elided > 0):
	// the burst shape elision_test.go targets, and the three Table 1 kernels
	// whose releases chain.
	for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
		for _, threads := range []int{4, 64} {
			pin(fmt.Sprintf("burst/%v/t%d", eng, threads), burstWorkload(10, 20),
				harness.Options{Engine: eng, Threads: threads})
		}
		for _, name := range []string{"ferret", "reverse_index", "dedup"} {
			pin(fmt.Sprintf("%s/%v/t8", name, eng), workloads.ByName(name).New(1),
				harness.Options{Engine: eng, Threads: 8})
		}
	}

	// A row where earned coarsening is live at t=4: own-lock streaks long
	// enough that every thread's runs go past the coarsening floor (core's runLimit), with
	// the seed's random operations on both sides of them.
	cfg := randprog.DefaultConfig(4)
	cfg.OpsPerThread = 40
	cfg.OwnStreak = randprog.MinExtendingStreak
	w, _, err := randprog.Generate(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := pin("seed1+streak/LazyDet/t4", w, harness.Options{Engine: harness.LazyDet, Threads: 4, CollectSpec: true})
	if res.Spec.ExtendedRuns.Load() == 0 {
		t.Error("seed1+streak/LazyDet/t4: no run went past the floor; the row pins nothing new")
	}

	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	golden := filepath.Join("testdata", "fingerprints.json")
	if *updateGolden {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing pinned fingerprints (run with -update): %v", err)
	}
	if bytes.Equal(out, raw) {
		return
	}
	var want []fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	pinned := make(map[string]fingerprint, len(want))
	for _, f := range want {
		pinned[f.Run] = f
	}
	for _, f := range got {
		if p, ok := pinned[f.Run]; !ok {
			t.Errorf("%s: not pinned", f.Run)
		} else if p != f {
			t.Errorf("%s moved:\n  pinned %+v\n  got    %+v", f.Run, p, f)
		}
	}
	t.Fatalf("%s differs from this commit's runs (%d pinned, %d run); regenerate with -update only if the move is intended",
		golden, len(want), len(got))
}
