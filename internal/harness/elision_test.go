package harness_test

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/workloads"
)

// burstWorkload is elision's target shape: each thread owns a lock and a
// word, and alternates a heavy compute phase with a burst of reacquire
// iterations on its own lock. A per-thread DLC stagger larger than a
// burst's total cost keeps the bursts disjoint in logical time, so each
// burst is an uninterrupted run of same-thread turns — the releases chain
// into one deferred publication, and the arbiter grants chain with them.
func burstWorkload(bursts, burstLen int64) *harness.Workload {
	const heavy = 10_000
	return &harness.Workload{
		Name:      "burst",
		HeapWords: 64,
		Locks:     64,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("burst-%d", tid))
				i, j, v := b.Reg(), b.Reg(), b.Reg()
				lock := dvm.Const(int64(tid))
				addr := dvm.Const(int64(tid))
				b.DoCost(1+int64(tid)*1000, func(*dvm.Thread) {})
				b.ForN(i, bursts, func() {
					b.DoCost(heavy, func(*dvm.Thread) {})
					b.ForN(j, burstLen, func() {
						b.Lock(lock)
						b.Load(v, addr)
						b.Store(addr, dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
						b.Unlock(lock)
					})
				})
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			for tid := 0; tid < threads; tid++ {
				if got, want := read(int64(tid)), bursts*burstLen; got != want {
					return fmt.Errorf("thread %d counter = %d, want %d", tid, got, want)
				}
			}
			return nil
		},
	}
}

// TestElisionFiresAndSavesCommits asserts the optimization is not vacuous
// on its target shape — threads repeatedly reacquiring locks whose state no
// peer demands: publications are elided, grant chains form, and the run
// physically commits strictly less often than it publishes. On ht, whose
// stages never survive to the owner's next release, every publication is
// still one physical commit. (That eliding changes nothing else is
// mempipe's TestVisibilityPoints and the burst rows of
// testdata/fingerprints.json.)
func TestElisionFiresAndSavesCommits(t *testing.T) {
	for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
		opt := harness.Options{Engine: eng, Threads: 4, Telemetry: true, CollectSpec: eng == harness.LazyDet}
		burst, err := harness.Run(burstWorkload(10, 20), opt)
		if err != nil {
			t.Fatalf("%v burst: %v", eng, err)
		}
		if n := burst.Telemetry.Counter("commit.elided"); n == 0 {
			t.Errorf("%v: no publications elided on a disjoint lock-hot workload", eng)
		}
		if pubs := burst.Telemetry.Counter("mempipe.publishes"); burst.Commits >= pubs {
			t.Errorf("%v: %d publications took %d physical commits — elision saved nothing", eng, pubs, burst.Commits)
		}
		if burst.ArbiterChainHits == 0 {
			t.Errorf("%v: no consecutive same-thread grants recorded", eng)
		}
		ht, err := harness.Run(workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HT)), opt)
		if err != nil {
			t.Fatalf("%v ht: %v", eng, err)
		}
		if pubs := ht.Telemetry.Counter("mempipe.publishes"); ht.Commits != pubs {
			t.Errorf("%v: ht published %d times in %d physical commits, want one each", eng, pubs, ht.Commits)
		}
	}
}

// TestSpeculativeRevertPreservesDeferredState is the engine-level
// regression test for the elision/speculation interaction: a contended
// workload makes LazyDet revert speculation runs while threads hold
// deferred (staged but not physically committed) publications. The
// invariant checker's deferred-publish rule audits the retained frames at
// every elided publication and after every revert, the workload's Validate
// checks the final counter, and the final heap is pinned.
func TestSpeculativeRevertPreservesDeferredState(t *testing.T) {
	res, err := harness.Run(harness.CounterWorkload(400), harness.Options{
		Engine: harness.LazyDet, Threads: 4, Trace: true, CollectSpec: true, Telemetry: true,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Reverts.Load() == 0 || res.Telemetry.Counter("commit.elided") == 0 {
		t.Fatalf("%d reverts, %d elided publications — the regression scenario never occurred",
			res.Spec.Reverts.Load(), res.Telemetry.Counter("commit.elided"))
	}
	// The heap was pinned at PR 14's commit, where the run with every
	// publication eager produced it too; the trace was re-pinned at PR 16,
	// whose virtual probes end the retry-every-20 reverts of this schedule.
	const wantTrace, wantHeap uint64 = 0x2467771b981483c9, 0x900d84417b430283
	if res.TraceSig != wantTrace || res.HeapHash != wantHeap {
		t.Errorf("trace %#x heap %#x, pinned %#x %#x", res.TraceSig, res.HeapHash, wantTrace, wantHeap)
	}
}
