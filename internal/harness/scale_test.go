package harness_test

import (
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/workloads"
)

// scaleHT builds a hash-table microbenchmark sized so the total operation
// count stays constant as threads grow — the Threads-scaling shape of the
// arbiter experiments.
func scaleHT(variant workloads.HTVariant, threads int) *harness.Workload {
	cfg := workloads.DefaultHTConfig(variant)
	cfg.OpsPerThread = 2048 / threads
	if cfg.OpsPerThread < 4 {
		cfg.OpsPerThread = 4
	}
	return workloads.NewHashTable(cfg)
}

// scaleWorkload is scaleHT for the hand-over-hand variant.
func scaleWorkload(threads int) *harness.Workload { return scaleHT(workloads.HT, threads) }

// TestScheduleEquivalenceAcrossHeapShards is the schedule-equivalence
// oracle for heap sharding: the default sharded heap and the HeapShards=1
// single-lock oracle must publish bit-identical traces, heaps, and commit
// totals. Sharding only partitions which mutex guards which page chains;
// commit order comes from the turn order either way.
//
// Deliberately unasserted: LiveVersions and the pool-hit stats — per-shard
// pools and floor caches make frame-recycling locality a function of the
// shard layout, deterministic per layout but not across layouts.
func TestScheduleEquivalenceAcrossHeapShards(t *testing.T) {
	for _, threads := range []int{4, 64, 256} {
		for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
			base := harness.Options{Engine: eng, Threads: threads, Trace: true}
			sharded, err := harness.Run(scaleWorkload(threads), base)
			if err != nil {
				t.Fatalf("t=%d %v sharded heap: %v", threads, eng, err)
			}
			oneOpt := base
			oneOpt.HeapShards = 1
			single, err := harness.Run(scaleWorkload(threads), oneOpt)
			if err != nil {
				t.Fatalf("t=%d %v unsharded heap: %v", threads, eng, err)
			}
			if sharded.TraceSig != single.TraceSig {
				t.Errorf("t=%d %v: trace signature diverges: sharded %x, unsharded %x",
					threads, eng, sharded.TraceSig, single.TraceSig)
			}
			if sharded.HeapHash != single.HeapHash {
				t.Errorf("t=%d %v: final heap diverges: sharded %x, unsharded %x",
					threads, eng, sharded.HeapHash, single.HeapHash)
			}
			if sharded.Commits != single.Commits || sharded.PagesCommitted != single.PagesCommitted ||
				sharded.WordsCommitted != single.WordsCommitted {
				t.Errorf("t=%d %v: commit totals diverge: sharded (%d, %d, %d), unsharded (%d, %d, %d)",
					threads, eng, sharded.Commits, sharded.PagesCommitted, sharded.WordsCommitted,
					single.Commits, single.PagesCommitted, single.WordsCommitted)
			}
		}
	}
}

// TestScaleRunWithInvariants runs the t=64 point with the full audit layer
// on: tournament-tree audits at every turn grant and per-shard trim-floor
// audits at every commit.
func TestScaleRunWithInvariants(t *testing.T) {
	_, err := harness.Run(scaleWorkload(64), harness.Options{
		Engine:          harness.LazyDet,
		Threads:         64,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}
