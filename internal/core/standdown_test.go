package core

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
)

// This file tests the speculation policy's stand-down end to end, through real
// programs: a lock that never succeeds costs a bounded number of reverts
// however long it runs, and a thread that stood down on a lock acquires it
// conventionally for the rest of the execution, even once nobody else uses it
// (DESIGN.md §4d).

// hotLock is the hot-lock shape: every thread increments one word under one
// lock, iters times.
func hotLock(iters int) *dvm.Program {
	b := dvm.NewBuilder(fmt.Sprintf("hot%d", iters))
	i, v := b.Reg(), b.Reg()
	b.ForN(i, int64(iters), func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	return b.Build()
}

// TestStandDownIsBounded: on a lock whose speculation never succeeds the
// reverts are the warm-up of the optimistic seed and nothing else — at most
// ten per (lock, thread), the failures that take an all-success history below
// 850 permille — and the same number however long the program runs. (The
// paper's retry-every-20 policy reverts once per twenty acquisitions,
// forever.)
func TestStandDownIsBounded(t *testing.T) {
	const threads, n = 4, 400
	reverts := func(iters int) int64 {
		r := newRig(t, lazyCfg(), threads, 64, 1, 0, 0)
		p := hotLock(iters)
		dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
		if got := r.read(0); got != int64(threads*iters) {
			t.Fatalf("counter = %d, want %d", got, threads*iters)
		}
		return r.spec.Reverts.Load()
	}
	short, long := reverts(n), reverts(4*n)
	if short == 0 || short > 10*threads {
		t.Errorf("%d reverts in %d sections per thread, want 1..%d", short, n, 10*threads)
	}
	if long != short {
		t.Errorf("%d reverts in %d sections per thread but %d in %d: the stand-down is not final", short, n, long, 4*n)
	}
}

// TestStandDownIsFinal: a lock every thread fights over in phase 1 and only
// thread 0 uses in phase 2 stays conventional through all of phase 2 — no
// conventional acquisition pushes an outcome, so nothing refills the history
// phase 1 drained — and phase 2 reverts nothing. The cost is a phase change
// the policy never notices (the paper retries for real every 20 attempts to
// notice one); DESIGN.md §4d has why the runtime pays it.
func TestStandDownIsFinal(t *testing.T) {
	const threads, phase1, phase2 = 4, 300, 200
	specAcquires := func(alone int) (acquires, reverts int64) {
		r := newRig(t, lazyCfg(), threads, 64, 1, 0, 1)
		var progs []*dvm.Program
		for tid := 0; tid < threads; tid++ {
			b := dvm.NewBuilder(fmt.Sprintf("t%d", tid))
			i, v := b.Reg(), b.Reg()
			section := func() {
				b.Lock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
				b.Unlock(dvm.Const(0))
			}
			b.ForN(i, phase1, section)
			b.Barrier(dvm.Const(0))
			if tid == 0 {
				b.ForN(i, int64(alone), section)
			}
			progs = append(progs, b.Build())
		}
		dvm.Run(r.eng, progs)
		if got, want := r.read(0), int64(threads*phase1+alone); got != want {
			t.Fatalf("counter = %d, want %d", got, want)
		}
		return r.spec.SpecAcquires.Load(), r.spec.Reverts.Load()
	}
	a0, r0 := specAcquires(0)
	a1, r1 := specAcquires(phase2)
	if got := a1 - a0; got != 0 {
		t.Errorf("%d of %d private phase-2 acquisitions were speculative, want 0", got, phase2)
	}
	if r1 != r0 {
		t.Errorf("the private phase reverted %d times", r1-r0)
	}
}
