package harness_test

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/workloads"
)

// burstWorkload is grant chaining's target shape: each thread owns a lock
// and a word, and alternates a heavy compute phase with a burst of reacquire
// iterations on its own lock. A per-thread DLC stagger larger than a burst's
// total cost keeps the bursts disjoint in logical time, so each burst is an
// uninterrupted run of same-thread turns, which the arbiter grants as a
// chain.
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

// TestElisionFiresAndSavesCommits asserts that turn elision by grant
// chaining is not vacuous on its target shape — threads repeatedly
// reacquiring locks whose state no peer demands — and that on ht every
// publication is one physical commit. (The same identity on every pinned run
// is TestPinnedFingerprints'.)
func TestElisionFiresAndSavesCommits(t *testing.T) {
	for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
		opt := harness.Options{Engine: eng, Threads: 4, Telemetry: true, CollectSpec: eng == harness.LazyDet}
		burst, err := harness.Run(burstWorkload(10, 20), opt)
		if err != nil {
			t.Fatalf("%v burst: %v", eng, err)
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
// regression test for reverts under contention: a contended workload makes
// LazyDet revert speculation runs. The invariant checker audits the window
// at every publication and after every revert, the workload's Validate
// checks the final counter, and the schedule and final heap are pinned.
func TestSpeculativeRevertPreservesDeferredState(t *testing.T) {
	res, err := harness.Run(harness.CounterWorkload(400), harness.Options{
		Engine: harness.LazyDet, Threads: 3, Trace: true, CollectSpec: true, Telemetry: true,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Reverts.Load() == 0 {
		t.Fatal("no reverts — the regression scenario never occurred")
	}
	// The heap is the counter's final value, the same under every schedule;
	// the trace is the schedule in which lock waiters park until the release
	// (30 reverts).
	const wantTrace, wantHeap uint64 = 0x5bc5068021dba978, 0x0c55bc8426c4eda9
	if res.TraceSig != wantTrace || res.HeapHash != wantHeap {
		t.Errorf("trace %#x heap %#x, pinned %#x %#x", res.TraceSig, res.HeapHash, wantTrace, wantHeap)
	}
}
