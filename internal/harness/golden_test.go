package harness_test

import (
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/randprog"
)

// goldenSeeds is the fixed corpus: run-twice determinism over these seeds is
// a regression gate, so the exact seeds matter — do not reshuffle them
// casually. They were chosen to cover barrier-heavy, condvar-heavy and
// syscall-heavy draws at the default op mix.
var goldenSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 42}

// TestGoldenCorpusRunTwice: every deterministic engine, over the golden seed
// corpus, reproduces identical trace signatures and final memory across two
// runs — with the invariant audit layer on and reporting zero violations.
func TestGoldenCorpusRunTwice(t *testing.T) {
	if testing.Short() {
		goldenSeeds = goldenSeeds[:3]
	}
	const threads = 4
	cfg := randprog.DefaultConfig(threads)
	cfg.OpsPerThread = 40

	engines := []harness.EngineKind{harness.Consequence, harness.TotalOrderWeak, harness.LazyDet}
	for _, seed := range goldenSeeds {
		w, _, err := randprog.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, eng := range engines {
			// An invariant violation would be the run's error.
			opt := harness.Options{Engine: eng, Threads: threads, Trace: true, CheckInvariants: true}
			r1, err := harness.Run(w, opt)
			if err != nil {
				t.Fatalf("seed %d %s run 1: %v", seed, eng, err)
			}
			r2, err := harness.Run(w, opt)
			if err != nil {
				t.Fatalf("seed %d %s run 2: %v", seed, eng, err)
			}
			if r1.TraceSig != r2.TraceSig {
				t.Errorf("seed %d %s: trace signatures differ: %x vs %x", seed, eng, r1.TraceSig, r2.TraceSig)
			}
			if r1.HeapHash != r2.HeapHash {
				t.Errorf("seed %d %s: final memory differs: %x vs %x", seed, eng, r1.HeapHash, r2.HeapHash)
			}
		}
	}
}
