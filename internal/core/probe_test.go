package core

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
)

// This file tests the speculation policy's virtual probes (policy.go's
// convAcquired) end to end, through real Lock/Unlock calls: arming and
// resolution at conventional acquisitions, and the two properties they exist
// for — a lock that never succeeds costs a bounded number of reverts however
// long it runs, and a lock that turns private speculates again promptly.

// hand drives engine calls for several simulated threads from the test's own
// goroutine. Every thread is parked in the arbiter except the one acting, and
// each action happens at a later logical time than all before it — the order
// the turn would impose — so the calls run the real acquire/release/commit
// paths, turn and all, in exactly the order the test states.
type hand struct {
	*rig
	th    []*dvm.Thread
	clock int64
}

func newHand(t *testing.T, cfg Config, threads, locks int) *hand {
	h := &hand{rig: newRig(t, cfg, threads, 64, locks, 0, 0)}
	arb := h.eng.arb
	arb.SetDeadlockHandler(func() {}) // all-parked is this driver's resting state
	for tid := 0; tid < threads; tid++ {
		th := &dvm.Thread{ID: tid, Regs: make([]int64, 1)}
		ts := h.eng.newTState(tid)
		th.Mem, th.EngineData = ts.mem, ts
		h.th = append(h.th, th)
		arb.SetParked(tid)
	}
	return h
}

func (h *hand) ts(tid int) *tstate { return h.eng.ts(h.th[tid]) }

// do runs f as thread tid, alone in arbitration, at the next logical instant.
func (h *hand) do(tid int, f func(e *Engine, th *dvm.Thread)) {
	arb := h.eng.arb
	h.clock += 10
	arb.Unpark(tid, h.clock)
	f(h.eng, h.th[tid])
	if d := arb.DLC(tid); d > h.clock {
		h.clock = d
	}
	arb.SetParked(tid)
}

// section runs one critical section on l as thread tid, storing under it when
// exclusive so the release publishes a commit.
func (h *hand) section(tid int, l int64, write bool) {
	if !write {
		h.do(tid, func(e *Engine, th *dvm.Thread) { e.RLock(th, l) })
		h.do(tid, func(e *Engine, th *dvm.Thread) { e.RUnlock(th, l) })
		return
	}
	h.do(tid, func(e *Engine, th *dvm.Thread) { e.Lock(th, l) })
	h.th[tid].Mem.Store(8+l, h.clock)
	h.do(tid, func(e *Engine, th *dvm.Thread) { e.Unlock(th, l) })
}

// noCoarsening is the configuration under which a probe lives for exactly one
// acquisition (the floor is 1), so arm and resolve can be observed one step
// apart.
func noCoarsening() Config {
	cfg := lazyCfg()
	cfg.Spec.NoCoarsening = true
	return cfg
}

// marker is a below-threshold history with one recognisable bit, so a pushed
// miss (marker<<1), a pushed hit (marker<<1|1) and no push at all differ.
const marker = uint64(1) << 20

// TestVirtualProbeArmResolve drives thread 0 through a conventional section
// on lock A (below the threshold, so the acquisition arms a probe), lets
// thread 1 do something to A, and resolves the probe at thread 0's next
// outermost conventional acquisition — of lock B.
func TestVirtualProbeArmResolve(t *testing.T) {
	const A, B, C = 0, 1, 2
	for _, c := range []struct {
		name    string
		write   bool // thread 0's section on A is exclusive
		foreign func(h *hand)
		want    uint64 // history of (A, thread 0) once B is acquired
	}{
		{"nobody touched the lock", true, func(*hand) {}, marker<<1 | 1},
		{"foreign conventional acquire", true, func(h *hand) { h.section(1, A, true) }, marker << 1},
		{"foreign conventional acquire, reader probe", false, func(h *hand) { h.section(1, A, true) }, marker << 1},
		{"foreign committed run that logged it", true, func(h *hand) {
			h.tbl.Locks[A].SpecHist[1] = ^uint64(0) // thread 1 speculates on A
			h.section(1, C, true)                   // conventionally first: re-bases its view
			h.section(1, A, true)
			h.do(1, func(e *Engine, th *dvm.Thread) {
				if !e.terminateRun(th, e.ts(th)) {
					t.Error("the foreign run did not commit; the case tests nothing")
				}
			})
		}, marker << 1},
		{"live owner", true, func(h *hand) {
			h.do(1, func(e *Engine, th *dvm.Thread) { e.Lock(th, A) })
		}, marker << 1},
		{"writer probe with live readers", true, func(h *hand) {
			h.do(1, func(e *Engine, th *dvm.Thread) { e.RLock(th, A) })
		}, marker << 1},
		{"reader probe with live readers", false, func(h *hand) {
			h.do(1, func(e *Engine, th *dvm.Thread) { e.RLock(th, A) })
		}, marker<<1 | 1},
		{"reader probe, foreign readers came and went", false, func(h *hand) { h.section(1, A, false) }, marker<<1 | 1},
	} {
		h := newHand(t, noCoarsening(), 2, 3)
		for l := range h.tbl.Locks {
			h.tbl.Locks[l].SpecHist[0], h.tbl.Locks[l].SpecHist[1] = marker, marker
		}
		h.section(0, A, c.write)
		if p := h.ts(0).pol.probe; p.left != 1 || p.lock != A || p.write != c.write {
			t.Fatalf("%s: conventional acquisition of A armed %+v", c.name, p)
		}
		if got := h.tbl.Locks[A].SpecHist[0]; got != marker {
			t.Fatalf("%s: history moved to %#x before the probe resolved", c.name, got)
		}
		c.foreign(h)
		h.do(0, func(e *Engine, th *dvm.Thread) { e.Lock(th, B) })
		if got := h.tbl.Locks[A].SpecHist[0]; got != c.want {
			t.Errorf("%s: history of A = %#x, want %#x", c.name, got, c.want)
		}
		if p := h.ts(0).pol.probe; p.left != 1 || p.lock != B {
			t.Errorf("%s: acquisition of B armed %+v, want a probe on B", c.name, p)
		}
		if h.spec.SpecAcquires.Load() != 0 && c.name != "foreign committed run that logged it" {
			t.Errorf("%s: a below-threshold lock was acquired speculatively", c.name)
		}
	}
}

// TestVirtualProbeScope: what does not arm or resolve a probe, and how long
// one stays open.
func TestVirtualProbeScope(t *testing.T) {
	const A, B, C = 0, 1, 2
	below := func(h *hand) {
		for l := range h.tbl.Locks {
			h.tbl.Locks[l].SpecHist[0] = marker
		}
	}
	lock := func(l int64) func(*Engine, *dvm.Thread) {
		return func(e *Engine, th *dvm.Thread) { e.Lock(th, l) }
	}
	unlock := func(l int64) func(*Engine, *dvm.Thread) {
		return func(e *Engine, th *dvm.Thread) { e.Unlock(th, l) }
	}

	t.Run("nested acquisitions neither arm nor resolve", func(t *testing.T) {
		h := newHand(t, noCoarsening(), 1, 3)
		below(h)
		h.do(0, lock(A))
		h.do(0, lock(B)) // depth 1
		if p := h.ts(0).pol.probe; p.lock != A || h.tbl.Locks[A].SpecHist[0] != marker || h.tbl.Locks[B].SpecHist[0] != marker {
			t.Fatalf("nested acquisition of B touched the probe: %+v, histories %#x %#x", p, h.tbl.Locks[A].SpecHist[0], h.tbl.Locks[B].SpecHist[0])
		}
		h.do(0, unlock(B))
		h.do(0, unlock(A))
		h.do(0, lock(C))
		if got := h.tbl.Locks[A].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of A = %#x after the next outermost acquisition, want a hit", got)
		}
		if got := h.tbl.Locks[B].SpecHist[0]; got != marker {
			t.Fatalf("history of nested B = %#x, want it untouched", got)
		}
	})

	t.Run("a history at the threshold takes no virtual outcomes", func(t *testing.T) {
		h := newHand(t, noCoarsening(), 1, 3)
		h.ts(0).noSpecNext = true // the post-revert progress guarantee: conventional although A says speculate
		h.section(0, A, true)
		if p := h.ts(0).pol.probe; p.left != 0 {
			t.Fatalf("conventional acquisition of a speculating lock armed %+v", p)
		}
		h.tbl.Locks[B].SpecHist[0] = marker
		h.section(0, B, true)
		if got := h.tbl.Locks[A].SpecHist[0]; got != ^uint64(0) {
			t.Fatalf("history of A = %#x, want the untouched optimistic seed", got)
		}
	})

	// MaxRunCS was the floor's configurable name; the subtest keeps it.
	t.Run("open for MaxRunCS acquisitions, or until the thread comes back", func(t *testing.T) {
		h := newHand(t, lazyCfg(), 1, 3)
		below(h)
		n := runFloor
		h.section(0, A, true)
		for i := 1; i < n; i++ {
			h.section(0, B, true)
			if got := h.tbl.Locks[A].SpecHist[0]; got != marker {
				t.Fatalf("probe on A resolved at acquisition %d of %d", i, n)
			}
			if p := h.ts(0).pol.probe; p.lock != A {
				t.Fatalf("acquisition %d inside A's virtual run armed %+v", i, p)
			}
		}
		h.section(0, C, true)
		if got := h.tbl.Locks[A].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of A = %#x after %d acquisitions, want a hit", got, n)
		}
		if p := h.ts(0).pol.probe; p.lock != C || p.left != n {
			t.Fatalf("the resolving acquisition armed %+v, want a fresh probe on C", p)
		}
		h.section(0, B, true)
		h.section(0, C, true) // back at C after one acquisition: resolves at once
		if got := h.tbl.Locks[C].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of C = %#x on re-acquisition, want a hit", got)
		}
	})

	t.Run("one history per thread without per-lock statistics", func(t *testing.T) {
		cfg := noCoarsening()
		cfg.Spec.NoPerLockStats = true
		h := newHand(t, cfg, 1, 2)
		h.ts(0).pol.threadHist = marker
		h.section(0, A, true)
		h.section(0, B, true)
		if got := h.ts(0).pol.threadHist; got != marker<<1|1 {
			t.Fatalf("thread history = %#x, want a hit pushed", got)
		}
		if got := h.tbl.Locks[A].SpecHist[0]; got != ^uint64(0) {
			t.Fatalf("per-lock history written in per-thread mode: %#x", got)
		}
	})
}

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

// TestReengagementIsPrompt: a lock every thread fights over in phase 1 and
// only thread 0 uses in phase 2 speculates again within 64 phase-2
// acquisitions — 55 consecutive probe hits refill a drained history. (One
// real probe per twenty attempts needs about 55 x 20.)
func TestReengagementIsPrompt(t *testing.T) {
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
	if got := a1 - a0; got < phase2-64 {
		t.Errorf("%d of %d private phase-2 acquisitions were speculative, want at least %d", got, phase2, phase2-64)
	}
	if r1 != r0 {
		t.Errorf("the private phase reverted %d times", r1-r0)
	}
}
