package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lazydet/internal/core"
	"lazydet/internal/dvm"
	"lazydet/internal/invariant"
)

// counterWorkload: every thread increments a single lock-protected counter
// iters times. The final value checks mutual exclusion under every engine.
func counterWorkload(iters int64) *Workload {
	return &Workload{
		Name:      "counter",
		HeapWords: 64,
		Locks:     1,
		Programs: func(threads int) []*dvm.Program {
			b := dvm.NewBuilder("counter")
			i, v := b.Reg(), b.Reg()
			b.ForN(i, iters, func() {
				b.Lock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
				b.Unlock(dvm.Const(0))
			})
			progs := make([]*dvm.Program, threads)
			p := b.Build()
			for t := range progs {
				progs[t] = p
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			want := int64(threads) * iters
			if got := read(0); got != want {
				return fmt.Errorf("counter = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// shardedWorkload: threads increment many per-shard counters under distinct
// locks — the fine-grained pattern lazy determinism targets. Each thread
// walks the shards in a different deterministic order.
func shardedWorkload(shards int, iters int64) *Workload {
	return &Workload{
		Name:      "sharded",
		HeapWords: int64(shards),
		Locks:     shards,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("sharded-%d", tid))
				i, v, s := b.Reg(), b.Reg(), b.Reg()
				stride := int64(tid*2 + 1)
				b.ForN(i, iters, func() {
					b.Do(func(t *dvm.Thread) { t.SetR(s, (t.R(i)*stride+int64(t.ID))%int64(shards)) })
					b.Lock(dvm.FromReg(s))
					b.Load(v, dvm.FromReg(s))
					b.Store(dvm.FromReg(s), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
					b.Unlock(dvm.FromReg(s))
				})
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			var total int64
			for s := 0; s < shards; s++ {
				total += read(int64(s))
			}
			want := int64(threads) * iters
			if total != want {
				return fmt.Errorf("sum of shards = %d, want %d", total, want)
			}
			return nil
		},
	}
}

// disjointWorkload: thread t owns an exclusive slice of the shards, so
// speculation never conflicts — the best case for lazy determinism.
func disjointWorkload(shards int, iters int64) *Workload {
	return &Workload{
		Name:      "disjoint",
		HeapWords: int64(shards),
		Locks:     shards,
		Programs: func(threads int) []*dvm.Program {
			per := shards / threads
			if per == 0 {
				per = 1
			}
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("disjoint-%d", tid))
				i, v, s := b.Reg(), b.Reg(), b.Reg()
				base := int64(tid % threads * per)
				b.ForN(i, iters, func() {
					b.Do(func(t *dvm.Thread) { t.SetR(s, base+t.R(i)%int64(per)) })
					b.Lock(dvm.FromReg(s))
					b.Load(v, dvm.FromReg(s))
					b.Store(dvm.FromReg(s), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
					b.Unlock(dvm.FromReg(s))
				})
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			var total int64
			for s := 0; s < shards; s++ {
				total += read(int64(s))
			}
			want := int64(threads) * iters
			if total != want {
				return fmt.Errorf("sum of shards = %d, want %d", total, want)
			}
			return nil
		},
	}
}

func TestAllEnginesPreserveMutualExclusion(t *testing.T) {
	w := counterWorkload(300)
	for _, eng := range AllEngines {
		t.Run(eng.String(), func(t *testing.T) {
			if _, err := Run(w, Options{Engine: eng, Threads: 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllEnginesShardedCorrectness(t *testing.T) {
	w := shardedWorkload(16, 200)
	for _, eng := range AllEngines {
		t.Run(eng.String(), func(t *testing.T) {
			if _, err := Run(w, Options{Engine: eng, Threads: 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterministicEnginesReproduce runs each deterministic engine twice and
// requires identical final heaps and identical synchronization-order traces.
func TestDeterministicEnginesReproduce(t *testing.T) {
	for _, w := range []*Workload{counterWorkload(200), shardedWorkload(8, 150)} {
		for _, eng := range []EngineKind{Consequence, TotalOrderWeak, LazyDet} {
			t.Run(w.Name+"/"+eng.String(), func(t *testing.T) {
				opt := Options{Engine: eng, Threads: 4, Trace: true}
				r1, err := Run(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Run(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r1.HeapHash != r2.HeapHash {
					t.Errorf("heap hashes differ: %x vs %x", r1.HeapHash, r2.HeapHash)
				}
				if r1.TraceSig != r2.TraceSig {
					t.Errorf("trace signatures differ: %x vs %x", r1.TraceSig, r2.TraceSig)
				}
				if r1.SyncEvents == 0 {
					t.Error("no synchronization events traced")
				}
			})
		}
	}
}

// TestLazyDetSpeculates checks that on a fine-grained workload LazyDet
// actually speculates (the point of the system) and mostly commits.
func TestLazyDetSpeculates(t *testing.T) {
	w := disjointWorkload(64, 300)
	r, err := Run(w, Options{Engine: LazyDet, Threads: 4, CollectSpec: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Runs.Load() == 0 {
		t.Fatal("no speculation runs on a fine-grained workload")
	}
	if pct := r.Spec.SpecAcquirePct(); pct < 50 {
		t.Errorf("speculative acquisitions = %.1f%%, want most acquisitions speculative", pct)
	}
	if pct := r.Spec.SuccessPct(); pct < 50 {
		t.Errorf("speculation success = %.1f%%, want mostly successful on disjoint shards", pct)
	}
	t.Logf("spec acq %.1f%%, success %.1f%%, mean run %.1f CS, commits %d reverts %d",
		r.Spec.SpecAcquirePct(), r.Spec.SuccessPct(), r.Spec.MeanRunCS(),
		r.Spec.Commits.Load(), r.Spec.Reverts.Load())
}

// TestLazyDetCoarsens checks that coarsening produces multi-CS runs and the
// NoCoarsening ablation limits runs to one critical section.
func TestLazyDetCoarsens(t *testing.T) {
	w := disjointWorkload(64, 300)
	full, err := Run(w, Options{Engine: LazyDet, Threads: 2, CollectSpec: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := full.Spec.MeanRunCS(); !(m > 1.5) {
		t.Errorf("mean run length = %.2f CS with coarsening, want > 1.5", m)
	}
	one, err := Run(w, Options{Engine: LazyDet, Threads: 2, CollectSpec: true, Spec: core.SpecConfig{NoCoarsening: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m := one.Spec.MeanRunCS(); m > 1.01 {
		t.Errorf("mean run length = %.2f CS with NoCoarsening, want 1", m)
	}
}

// TestLazyDetHandlesContention: all threads hammer one lock. Adaptive
// speculation must learn to stop speculating, and the result must stay
// correct and deterministic.
func TestLazyDetHandlesContention(t *testing.T) {
	w := counterWorkload(400)
	opt := Options{Engine: LazyDet, Threads: 4, CollectSpec: true, Trace: true}
	r1, err := Run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HeapHash != r2.HeapHash || r1.TraceSig != r2.TraceSig {
		t.Errorf("contended LazyDet run not deterministic: heap %x/%x trace %x/%x",
			r1.HeapHash, r2.HeapHash, r1.TraceSig, r2.TraceSig)
	}
	t.Logf("contended: spec acq %.1f%%, success %.1f%%, reverts %d",
		r1.Spec.SpecAcquirePct(), r1.Spec.SuccessPct(), r1.Spec.Reverts.Load())
}

// TestStrongIsolationPublishesOnlyAtSync: under Consequence, a write by one
// thread must not be visible to another before a synchronization operation
// publishes it; after the run, all writes are visible.
func TestStrongIsolationEndState(t *testing.T) {
	w := &Workload{
		Name:      "isolation",
		HeapWords: 64,
		Locks:     1,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder("iso")
				b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) }), dvm.Const(7))
				b.Lock(dvm.Const(0))
				b.Unlock(dvm.Const(0))
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			for i := 0; i < threads; i++ {
				if got := read(int64(i)); got != 7 {
					return fmt.Errorf("slot %d = %d, want 7 (write lost)", i, got)
				}
			}
			return nil
		},
	}
	for _, eng := range []EngineKind{Consequence, LazyDet} {
		if _, err := Run(w, Options{Engine: eng, Threads: 4}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
}

// TestUtilizationMeasured smoke-tests the Figure 10 instrumentation.
func TestUtilizationMeasured(t *testing.T) {
	w := counterWorkload(200)
	r, err := Run(w, Options{Engine: Consequence, Threads: 4, MeasureTimes: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.UtilizationPct <= 0 || r.UtilizationPct > 100 {
		t.Fatalf("utilization = %.1f%%, want in (0, 100]", r.UtilizationPct)
	}
}

// TestLockCounting smoke-tests the Table 1 instrumentation.
func TestLockCounting(t *testing.T) {
	w := shardedWorkload(16, 100)
	r, err := Run(w, Options{Engine: Pthreads, Threads: 4, CountLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Counter.Summarize()
	if s.Acquisitions != 4*100 {
		t.Fatalf("counted %d acquisitions, want 400", s.Acquisitions)
	}
	if s.Variables == 0 || s.Max == 0 {
		t.Fatalf("bad summary %+v", s)
	}
}

// TestRunRejectsBadOptions: option and workload values the substrate cannot
// honour are reported as errors by Run, for every engine, instead of
// panicking further down, and the rejected run leaves no goroutine behind.
func TestRunRejectsBadOptions(t *testing.T) {
	ok := Options{Threads: 2}
	for _, c := range []struct {
		name string
		opt  Options
		bend func(*Workload) // nil: the workload as built
		want string
	}{
		{"no threads", Options{Threads: 0}, nil, "thread count 0"},
		{"negative threads", Options{Threads: -2}, nil, "thread count -2"},
		{"negative heap", ok, func(w *Workload) { w.HeapWords = -1 }, "workload counter has a negative size (heap -1 words"},
		{"negative locks", ok, func(w *Workload) { w.Locks = -1 }, "workload counter has a negative size (heap 64 words, -1 locks"},
		{"negative conds", ok, func(w *Workload) { w.Conds = -3 }, "workload counter has a negative size (heap 64 words, 1 locks, -3 conds"},
		{"negative barriers", ok, func(w *Workload) { w.Barriers = -1 }, "workload counter has a negative size (heap 64 words, 1 locks, 0 conds, -1 barriers"},
	} {
		for _, eng := range AllEngines {
			c.opt.Engine = eng
			w := counterWorkload(4)
			if c.bend != nil {
				c.bend(w)
			}
			res, err := runNoLeak(t, c.name+" under "+eng.String(), w, c.opt)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s under %s: error %v, want one naming %q", c.name, eng, err, c.want)
			}
			if res != nil {
				t.Errorf("%s under %s: a result came back with the error", c.name, eng)
			}
		}
	}
}

// TestViolationsBecomeRunsError: the collector Run installs as the audit's
// reporter turns a run's violations into one error that wraps the first —
// errors.As finds it — and counts the ones after it.
func TestViolationsBecomeRunsError(t *testing.T) {
	var c violations
	if err := c.err(); err != nil {
		t.Fatalf("no violations reported, error %v", err)
	}
	c.report(&invariant.Violation{Rule: "lock-commitseq-monotone", Thread: 1, DLC: 40, Lock: 3, Detail: "LastCommitSeq 40 -> 12"})
	c.report(&invariant.Violation{Rule: "turn-minimum", Thread: 2, DLC: 41, Lock: -1, Detail: "second"})
	err := c.err()
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("errors.As found no *invariant.Violation in %v", err)
	}
	if v.Rule != "lock-commitseq-monotone" || v.Lock != 3 {
		t.Errorf("wrapped violation %+v, want the first one reported (lock-commitseq-monotone on lock 3)", v)
	}
	if !strings.Contains(err.Error(), "(1 more violation(s) after it)") {
		t.Errorf("error %q does not count the one violation after the first", err)
	}
}
