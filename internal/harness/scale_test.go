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

// TestScaleRunWithInvariants runs the t=64 point with the full audit layer
// on: tournament-tree audits at every turn grant and trim-floor audits at
// every commit.
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
