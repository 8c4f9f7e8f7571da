package core

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
)

// This file tests the conflict rule: a lock's commit sequence advances only
// for an exclusive critical section that stored (heldLock), so a section that
// took the lock only to read invalidates no run that logged it.

// TestReadOnlySectionsDoNotConflict: two threads take one lock exclusively,
// each inside the other's open run. When neither stores, both runs commit
// with no revert; when both store, the run that commits second began before
// the first one's commit and reverts.
func TestReadOnlySectionsDoNotConflict(t *testing.T) {
	const L = 0
	for _, c := range []struct {
		name    string
		stores  bool
		reverts int64
	}{
		{"read-only", false, 0},
		{"stored", true, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHand(t, lazyCfg(), 2, 3)
			section := func(tid int) {
				if c.stores {
					h.section(tid, L, true)
				} else {
					h.lockedRead(tid, L)
				}
			}
			// Each thread opens a run on a lock of its own (1, 2), then
			// takes L inside it, after the other thread's run is open too.
			h.section(0, 1, true)
			h.section(1, 2, true)
			section(0)
			section(1)
			if !h.ts(0).spec || !h.ts(1).spec {
				t.Fatalf("runs open: %v %v, want both", h.ts(0).spec, h.ts(1).spec)
			}
			committed := make([]bool, 2)
			for tid := range committed {
				h.do(tid, func(e *Engine, th *dvm.Thread) { committed[tid] = e.terminateRun(th, e.ts(th)) })
			}
			if got := h.spec.Reverts.Load(); got != c.reverts {
				t.Fatalf("%d reverts (commits %v), want %d", got, committed, c.reverts)
			}
			if !committed[0] || committed[1] != (c.reverts == 0) {
				t.Fatalf("commits %v, want thread 0's and %v for thread 1's", committed, c.reverts == 0)
			}
		})
	}
}

// TestReadOnlySectionsCommitEndToEnd: threads that only read under one hot
// lock, each run spanning many sections, never revert; the same program
// storing under the lock does.
func TestReadOnlySectionsCommitEndToEnd(t *testing.T) {
	const threads, iters = 4, 200
	run := func(stores bool) int64 {
		r := newRig(t, lazyCfg(), threads, 64, 1, 0, 0)
		var progs []*dvm.Program
		for tid := 0; tid < threads; tid++ {
			b := dvm.NewBuilder(fmt.Sprintf("t%d", tid))
			i, v := b.Reg(), b.Reg()
			cell := int64(8 + tid)
			b.ForN(i, iters, func() {
				b.Lock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				if stores {
					b.Store(dvm.Const(cell), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) }))
				}
				b.Unlock(dvm.Const(0))
			})
			progs = append(progs, b.Build())
		}
		dvm.Run(r.eng, progs)
		return r.spec.Reverts.Load()
	}
	if got := run(false); got != 0 {
		t.Errorf("read-only sections: %d reverts, want 0", got)
	}
	if got := run(true); got == 0 {
		t.Error("storing sections under one lock: no revert; the contrast tests nothing")
	}
}

// TestNestedStoreMarksEveryHeldLock: a store under an inner lock m counts as
// a store under every lock held around it, so the outer lock l publishes a
// commit too (the conservative case: l may guard nothing m's section wrote).
// A store made under l before m was taken does not mark m.
func TestNestedStoreMarksEveryHeldLock(t *testing.T) {
	const l, m = 0, 1
	for _, spec := range []bool{true, false} {
		for _, inner := range []bool{true, false} {
			name := fmt.Sprintf("spec=%v/store under inner=%v", spec, inner)
			h := newHand(t, lazyCfg(), 1, 2)
			h.ts(0).noSpecNext = !spec // conventional: the post-revert guarantee
			h.do(0, func(e *Engine, th *dvm.Thread) { e.Lock(th, l) })
			if h.ts(0).spec != spec {
				t.Fatalf("%s: outer acquisition speculated = %v", name, h.ts(0).spec)
			}
			if !inner {
				h.th[0].Store(8, 1)
			}
			h.do(0, func(e *Engine, th *dvm.Thread) { e.Lock(th, m) })
			if inner {
				h.th[0].Store(9, 1)
			}
			h.do(0, func(e *Engine, th *dvm.Thread) { e.Unlock(th, m) })
			h.do(0, func(e *Engine, th *dvm.Thread) { e.Unlock(th, l) })
			if spec {
				for _, r := range h.ts(0).log.locks {
					if want := r.lock == l || inner; r.wrote != want {
						t.Errorf("%s: log record of lock %d wrote = %v, want %v", name, r.lock, r.wrote, want)
					}
				}
				h.do(0, func(e *Engine, th *dvm.Thread) {
					if !e.terminateRun(th, e.ts(th)) {
						t.Errorf("%s: a lone thread's run reverted", name)
					}
				})
			}
			seq := h.eng.pipe.Seq()
			if seq == 0 {
				t.Fatalf("%s: nothing committed", name)
			}
			if got := h.tbl.Locks[l].LastCommitSeq; got != seq {
				t.Errorf("%s: outer lock's commit sequence %d, want %d", name, got, seq)
			}
			want := int64(0)
			if inner {
				want = seq
			}
			if got := h.tbl.Locks[m].LastCommitSeq; got != want {
				t.Errorf("%s: inner lock's commit sequence %d, want %d", name, got, want)
			}
		}
	}
}

// TestCondWaitPublishesOnlyAStoringSection: CondWait releases its lock like
// Unlock does, so the lock's commit sequence advances at the wait exactly
// when the section stored before it.
func TestCondWaitPublishesOnlyAStoringSection(t *testing.T) {
	for _, stores := range []bool{true, false} {
		r := newRig(t, Config{Mode: ModeStrong}, 2, 64, 1, 1, 0)
		// Thread 0 waits inside its section; thread 1 takes the lock once
		// the wait released it (its long prefix orders it after), reads
		// the lock's commit sequence and signals.
		b0 := dvm.NewBuilder("waiter")
		b0.Lock(dvm.Const(0))
		if stores {
			b0.Store(dvm.Const(8), dvm.Const(1))
		}
		b0.CondWait(dvm.Const(0), dvm.Const(0))
		b0.Unlock(dvm.Const(0))
		var seen int64
		b1 := dvm.NewBuilder("signaler")
		i := b1.Reg()
		b1.ForN(i, 200, func() { b1.Do(func(*dvm.Thread) {}) })
		b1.Lock(dvm.Const(0))
		b1.Do(func(*dvm.Thread) { seen = r.tbl.Locks[0].LastCommitSeq })
		b1.CondSignal(dvm.Const(0))
		b1.Unlock(dvm.Const(0))
		dvm.Run(r.eng, []*dvm.Program{b0.Build(), b1.Build()})
		if got := seen != 0; got != stores {
			t.Errorf("stores=%v: commit sequence at the wait %d, want it advanced: %v", stores, seen, stores)
		}
	}
}

// TestAtomicUnderLockConflicts: an atomic read-modify-write is a store to the
// conflict rule. Thread 1's section under l reads x and atomically adds to a;
// thread 0's run, open across it, reads a plainly and stores x under l. Under
// l the only serial outcomes are r=0,s=1 (thread 1 first) and r=1,s=0
// (thread 0 first); r=0,s=0 means thread 0 committed a read of a that missed
// thread 1's atomic. The run must revert and re-read instead. The contrast
// rows: a plain store in place of the atomic reverts too, and a section that
// only reads x leaves thread 0's run valid (r=0,s=0 is then thread 1 first).
func TestAtomicUnderLockConflicts(t *testing.T) {
	const l, x, a = 0, 8, 16
	for _, c := range []struct {
		name    string
		write   func(b *dvm.Builder)
		reverts bool
	}{
		{"atomic", func(b *dvm.Builder) { b.AtomicAdd(b.Reg(), dvm.Const(a), dvm.Const(1)) }, true},
		{"store", func(b *dvm.Builder) { b.Store(dvm.Const(a), dvm.Const(1)) }, true},
		{"read-only", func(*dvm.Builder) {}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rg := newRig(t, lazyCfg(), 2, 64, 1, 0, 0)
			var s, r int64
			// Thread 0 opens its run at once and keeps it open past thread
			// 1's section, which its long tail orders first in logical time.
			b0 := dvm.NewBuilder("reader-of-a")
			v0, i0 := b0.Reg(), b0.Reg()
			b0.Lock(dvm.Const(l))
			b0.Load(v0, dvm.Const(a))
			b0.Store(dvm.Const(x), dvm.Const(1))
			b0.Unlock(dvm.Const(l))
			b0.Do(func(th *dvm.Thread) { s = th.R(v0) })
			b0.ForN(i0, 400, func() { b0.Do(func(*dvm.Thread) {}) })
			b1 := dvm.NewBuilder("writer-of-a")
			v1, i1 := b1.Reg(), b1.Reg()
			b1.ForN(i1, 50, func() { b1.Do(func(*dvm.Thread) {}) })
			b1.Lock(dvm.Const(l))
			b1.Load(v1, dvm.Const(x))
			c.write(b1)
			b1.Unlock(dvm.Const(l))
			b1.Do(func(th *dvm.Thread) { r = th.R(v1) })
			dvm.Run(rg.eng, []*dvm.Program{b0.Build(), b1.Build()})
			if r != 0 {
				t.Fatalf("thread 1 read x = %d, want 0: its section did not run inside thread 0's run", r)
			}
			reverts := rg.spec.Reverts.Load()
			if got := reverts > 0; got != c.reverts {
				t.Fatalf("%d reverts, want reverts: %v", reverts, c.reverts)
			}
			if c.reverts && s != 1 {
				t.Fatalf("r=0, s=%d: thread 0's run committed a read of a that missed thread 1's write under l", s)
			}
		})
	}
}
