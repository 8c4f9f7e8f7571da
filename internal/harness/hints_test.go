package harness

import (
	"fmt"
	"testing"

	"lazydet/internal/core"
	"lazydet/internal/dvm"
	"lazydet/internal/progcheck"
)

// privateCounterWorkload: every thread increments its own cell under one
// shared lock — correct but needlessly serialized, the pattern the footprint
// pass proves Disjoint (no cross-thread overlap through the lock).
func privateCounterWorkload(iters int64) *Workload {
	return &Workload{
		Name:      "private-counter",
		HeapWords: 64,
		Locks:     1,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("private-%d", tid))
				i, v := b.Reg(), b.Reg()
				cell := dvm.Const(int64(tid))
				b.ForN(i, iters, func() {
					b.Lock(dvm.Const(0))
					b.Load(v, cell)
					b.Store(cell, dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
					b.Unlock(dvm.Const(0))
				})
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			for tid := 0; tid < threads; tid++ {
				if got := read(int64(tid)); got != iters {
					return fmt.Errorf("cell %d = %d, want %d", tid, got, iters)
				}
			}
			return nil
		},
	}
}

// TestSpecHintsPopulated: Options.SpecHints attaches the verdict table and
// the per-lock revert attribution to the result, and the shared counter's
// lock classifies Conflicting.
func TestSpecHintsPopulated(t *testing.T) {
	res, err := Run(counterWorkload(20), Options{
		Engine: LazyDet, Threads: 4, SpecHints: true, CollectSpec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hints == nil {
		t.Fatal("Options.SpecHints set but Result.Hints is nil")
	}
	if got := res.Hints.Verdicts[0]; got != progcheck.VerdictConflicting {
		t.Fatalf("counter lock verdict = %s, want conflicting", got)
	}
	if len(res.LockReverts) != 1 {
		t.Fatalf("LockReverts has %d entries, want 1", len(res.LockReverts))
	}
}

// TestSpecHintsHeapHashEquivalence: hints only change when the engine
// speculates, never what committed state it produces — the hinted run's
// final heap must be bit-identical to the unhinted one, and both must pass
// the workload's semantic Validate (Run checks it internally).
func TestSpecHintsHeapHashEquivalence(t *testing.T) {
	for _, w := range []*Workload{counterWorkload(30), privateCounterWorkload(30)} {
		for _, threads := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s-t%d", w.Name, threads), func(t *testing.T) {
				base := Options{Engine: LazyDet, Threads: threads, CollectSpec: true}
				ref, err := Run(w, base)
				if err != nil {
					t.Fatal(err)
				}
				hinted := base
				hinted.SpecHints = true
				hr, err := Run(w, hinted)
				if err != nil {
					t.Fatal(err)
				}
				if hr.HeapHash != ref.HeapHash {
					t.Fatalf("hinted heap hash %#x != unhinted %#x", hr.HeapHash, ref.HeapHash)
				}
			})
		}
	}
}

// TestDisjointLockZeroReverts: a statically Disjoint lock always speculates
// and its conflict checks are skipped, so it can never be charged a revert —
// the property lazydet-fuzz checks across random programs, pinned here on
// the canonical workload.
func TestDisjointLockZeroReverts(t *testing.T) {
	res, err := Run(privateCounterWorkload(50), Options{
		Engine: LazyDet, Threads: 4, SpecHints: true, CollectSpec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Hints.Verdicts[0]; got != progcheck.VerdictDisjoint {
		t.Fatalf("private lock verdict = %s, want disjoint — %s", got, res.Hints.Reasons[0])
	}
	if got := res.LockReverts[0]; got != 0 {
		t.Fatalf("disjoint lock charged %d conflict reverts, want 0", got)
	}
}

// TestLowerHints: the dense lowering keeps IDs aligned, defaults missing
// locks to HintNone, and drops out-of-range verdicts.
func TestLowerHints(t *testing.T) {
	h := &progcheck.SpecHints{Verdicts: map[int64]progcheck.SpecVerdict{
		0: progcheck.VerdictDisjoint,
		2: progcheck.VerdictConflicting,
		3: progcheck.VerdictUnknown,
		9: progcheck.VerdictDisjoint, // beyond the lock table: dropped
	}}
	got := lowerHints(h, 4)
	want := []core.SpecHint{core.HintDisjoint, core.HintNone, core.HintConflicting, core.HintNone}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hint[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if lowerHints(nil, 4) != nil {
		t.Fatal("nil hints must lower to nil")
	}
	if lowerHints(&progcheck.SpecHints{}, 4) != nil {
		t.Fatal("empty hints must lower to nil")
	}
}
