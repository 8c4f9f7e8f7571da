package core

import (
	"strings"
	"testing"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// rig bundles an engine with its substrates for white-box tests.
type rig struct {
	eng  *Engine
	heap *vheap.Heap
	mem  *shmem.Mem
	tbl  *detsync.Table
	spec *stats.Spec
	rec  *trace.Recorder
}

func newRig(t *testing.T, cfg Config, threads, words, locks, conds, barriers int) *rig {
	t.Helper()
	r := &rig{spec: &stats.Spec{}, rec: trace.New(threads)}
	d := Deps{Spec: r.spec, Rec: r.rec}
	if cfg.Mode == ModeWeakNondet {
		d.Arb = dlc.NewNondet(threads)
	} else {
		d.Arb = dlc.New(threads)
	}
	d.Tbl = detsync.NewTable(threads, locks, conds, barriers, cfg.Speculation)
	r.tbl = d.Tbl
	if cfg.Mode == ModeStrong {
		r.heap = vheap.New(int64(words))
		d.Heap = r.heap
	} else {
		r.mem = shmem.New(int64(words))
		d.Mem = r.mem
	}
	r.eng = New(cfg, d)
	return r
}

func (r *rig) read(addr int64) int64 {
	if r.heap != nil {
		return r.heap.ReadCommitted(addr)
	}
	return r.mem.ReadCommitted(addr)
}

func lazyCfg() Config { return Config{Mode: ModeStrong, Speculation: true} }

// TestSpeculationBeginsAtLock: a single thread acquiring one lock starts a
// run, and thread exit commits it.
func TestSpeculationBeginsAtLock(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 1, 0, 0)
	b := dvm.NewBuilder("p")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Const(5), dvm.Const(42))
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if got := r.read(5); got != 42 {
		t.Fatalf("word 5 = %d, want 42 (exit must commit the run)", got)
	}
	if r.spec.Runs.Load() != 1 || r.spec.Commits.Load() != 1 {
		t.Fatalf("runs=%d commits=%d, want 1/1", r.spec.Runs.Load(), r.spec.Commits.Load())
	}
	if r.spec.SpecAcquires.Load() != 1 {
		t.Fatalf("spec acquires = %d, want 1", r.spec.SpecAcquires.Load())
	}
	if g := r.tbl.Locks[0].LastAcquireDLC; g == 0 {
		t.Fatalf("G_l not updated on commit")
	}
}

// TestDeterministicConflictReverts constructs a guaranteed conflict:
// thread 0 acquires lock 0 conventionally early (its clock is far ahead, so
// it cannot speculate — noSpecNext is forced via a contrived first CS);
// instead we force determinism by giving thread 1 a long compute prefix, so
// thread 0's conventional acquisition of the shared lock always lands
// inside thread 1's speculative run window.
func TestDeterministicConflictReverts(t *testing.T) {
	r := newRig(t, lazyCfg(), 2, 64, 2, 0, 0)

	// Thread 0: immediately speculate on lock 0, commit at exit — but
	// first write through lock 0 so the commit publishes and bumps the
	// lock's commit sequence.
	b0 := dvm.NewBuilder("t0")
	b0.Lock(dvm.Const(0))
	b0.Store(dvm.Const(8), dvm.Const(1))
	b0.Unlock(dvm.Const(0))
	// Exit: commits with a low DLC (short program).

	// Thread 1: long compute prefix (so its run begins before thread 0
	// commits but its own commit turn comes after), then a speculative
	// run touching the same lock.
	b1 := dvm.NewBuilder("t1")
	i := b1.Reg()
	b1.Lock(dvm.Const(1)) // begin a run on an uncontended lock
	b1.ForN(i, 200, func() {
		b1.Do(func(*dvm.Thread) {})
	})
	b1.Lock(dvm.Const(0)) // extend the run over the shared lock
	b1.Store(dvm.Const(9), dvm.Const(2))
	b1.Unlock(dvm.Const(0))
	b1.Unlock(dvm.Const(1))

	dvm.Run(r.eng, []*dvm.Program{b0.Build(), b1.Build()})

	if r.spec.Reverts.Load() == 0 {
		t.Fatalf("expected at least one revert (conflict on lock 0); commits=%d runs=%d",
			r.spec.Commits.Load(), r.spec.Runs.Load())
	}
	// Despite the revert, both writes must survive re-execution.
	if r.read(8) != 1 || r.read(9) != 2 {
		t.Fatalf("final memory (8)=%d (9)=%d, want 1 and 2", r.read(8), r.read(9))
	}
}

// TestRevertRestoresRegistersAndHeap: after a forced conflict, the
// re-executed code must observe pristine registers and heap (no doubled
// increments).
func TestRevertRestoresRegistersAndHeap(t *testing.T) {
	r := newRig(t, lazyCfg(), 2, 64, 2, 0, 0)

	b0 := dvm.NewBuilder("t0")
	b0.Lock(dvm.Const(0))
	b0.Store(dvm.Const(8), dvm.Const(1))
	b0.Unlock(dvm.Const(0))

	b1 := dvm.NewBuilder("t1")
	i, acc, v := b1.Reg(), b1.Reg(), b1.Reg()
	b1.ForN(i, 300, func() { b1.Do(func(*dvm.Thread) {}) })
	// The run: increment a register and a heap word once each.
	b1.Lock(dvm.Const(0))
	b1.Do(func(th *dvm.Thread) { th.AddR(acc, 1) })
	b1.Load(v, dvm.Const(10))
	b1.Store(dvm.Const(10), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
	b1.Unlock(dvm.Const(0))
	b1.Store(dvm.Const(11), dvm.FromReg(acc)) // publish the register

	dvm.Run(r.eng, []*dvm.Program{b0.Build(), b1.Build()})

	if got := r.read(10); got != 1 {
		t.Errorf("heap counter = %d, want 1 (revert must undo the speculative store)", got)
	}
	if got := r.read(11); got != 1 {
		t.Errorf("register counter = %d, want 1 (revert must restore registers)", got)
	}
}

// TestAdaptiveDisablesSpeculation: with an always-conflicting lock, the
// per-lock history must fall below the threshold and speculative
// acquisitions must become a small fraction (only the warm-up remains;
// TestStandDownIsBounded counts it).
func TestAdaptiveDisablesSpeculation(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 300, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})

	if got := r.read(0); got != 4*300 {
		t.Fatalf("counter = %d, want 1200", got)
	}
	if pct := r.spec.SpecAcquirePct(); pct > 50 {
		t.Errorf("speculative acquisitions = %.1f%% on a fully contended lock; adaptation failed", pct)
	}
	// At least one thread's history for lock 0 must be below the
	// threshold.
	low := false
	for tid := 0; tid < 4; tid++ {
		if successRatePermille(r.tbl.Locks[0].SpecHist[tid]) < specThresholdPermille {
			low = true
		}
	}
	if !low {
		t.Error("no per-thread history dropped below the speculation threshold")
	}
}

// TestIrrevocableUpgrade: a syscall inside a speculative critical section
// upgrades the run; the effect runs exactly once despite speculation.
func TestIrrevocableUpgrade(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 1, 0, 0)
	count := 0
	b := dvm.NewBuilder("p")
	b.Lock(dvm.Const(0))
	b.Syscall(&dvm.Syscall{Name: "write", Work: 10, Effect: func(*dvm.Thread) { count++ }})
	b.Store(dvm.Const(3), dvm.Const(7))
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if count != 1 {
		t.Fatalf("syscall effect ran %d times, want exactly 1", count)
	}
	if r.spec.Upgrades.Load() != 1 {
		t.Fatalf("upgrades = %d, want 1", r.spec.Upgrades.Load())
	}
	if got := r.read(3); got != 7 {
		t.Fatalf("word 3 = %d, want 7 (irrevocable run must commit at first lock-free point)", got)
	}
	if r.eng.irrevocableOwner != -1 {
		t.Fatal("irrevocable ownership not cleared after termination")
	}
}

// TestNoIrrevocableRevertsAndReexecutes: with the upgrade disabled, the
// syscall effect still runs exactly once (the run reverts first, then the
// syscall executes non-speculatively on re-execution).
func TestNoIrrevocableRevertsAndReexecutes(t *testing.T) {
	cfg := lazyCfg()
	cfg.Spec.NoIrrevocable = true
	r := newRig(t, cfg, 1, 64, 1, 0, 0)
	count := 0
	b := dvm.NewBuilder("p")
	b.Lock(dvm.Const(0))
	b.Syscall(&dvm.Syscall{Name: "write", Work: 10, Effect: func(*dvm.Thread) { count++ }})
	b.Store(dvm.Const(3), dvm.Const(7))
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if count != 1 {
		t.Fatalf("syscall effect ran %d times, want exactly 1", count)
	}
	if r.spec.Reverts.Load() != 1 {
		t.Fatalf("reverts = %d, want 1 (NoIrrevocable must revert at the syscall)", r.spec.Reverts.Load())
	}
	if got := r.read(3); got != 7 {
		t.Fatalf("word 3 = %d, want 7", got)
	}
}

// TestSyscallOutsideCriticalSection: at lock depth 0 a speculative run
// simply terminates (commits) before the syscall — no upgrade needed.
func TestSyscallOutsideCriticalSection(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 1, 0, 0)
	b := dvm.NewBuilder("p")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Const(2), dvm.Const(9))
	b.Unlock(dvm.Const(0))
	b.Syscall(&dvm.Syscall{Name: "write", Work: 10})
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if r.spec.Upgrades.Load() != 0 {
		t.Fatalf("upgrades = %d, want 0 (depth-0 syscall should not upgrade)", r.spec.Upgrades.Load())
	}
	if r.spec.Commits.Load() != 1 {
		t.Fatalf("commits = %d, want 1", r.spec.Commits.Load())
	}
	if got := r.read(2); got != 9 {
		t.Fatalf("word 2 = %d, want 9", got)
	}
}

// TestCondWaitTerminatesRun: a speculative run reaching a condition
// variable terminates first (footnote 2); the still-held lock converts to a
// conventionally held one, and the handshake completes correctly.
func TestCondWaitTerminatesRun(t *testing.T) {
	r := newRig(t, lazyCfg(), 2, 64, 1, 1, 0)

	// Thread 0 waits for the flag; thread 1 sets it and signals.
	b0 := dvm.NewBuilder("waiter")
	fv := b0.Reg()
	b0.Lock(dvm.Const(0))
	b0.Load(fv, dvm.Const(0))
	b0.While(func(th *dvm.Thread) bool { return th.R(fv) == 0 }, func() {
		b0.CondWait(dvm.Const(0), dvm.Const(0))
		b0.Load(fv, dvm.Const(0))
	})
	b0.Store(dvm.Const(1), dvm.Const(77)) // post-wakeup write
	b0.Unlock(dvm.Const(0))

	b1 := dvm.NewBuilder("signaler")
	i := b1.Reg()
	b1.ForN(i, 100, func() { b1.Do(func(*dvm.Thread) {}) })
	b1.Lock(dvm.Const(0))
	b1.Store(dvm.Const(0), dvm.Const(1))
	b1.CondSignal(dvm.Const(0))
	b1.Unlock(dvm.Const(0))

	dvm.Run(r.eng, []*dvm.Program{b0.Build(), b1.Build()})

	if got := r.read(1); got != 77 {
		t.Fatalf("word 1 = %d, want 77 (condvar handshake broken)", got)
	}
	if r.tbl.Locks[0].Owner != 0 {
		t.Fatalf("lock 0 still owned by %d after the run", r.tbl.Locks[0].Owner)
	}
}

// TestBarrierTerminatesRun: barriers also terminate speculation, and all
// pre-barrier writes are visible after it under strong isolation.
func TestBarrierTerminatesRun(t *testing.T) {
	r := newRig(t, lazyCfg(), 3, 64, 3, 0, 1)
	progs := make([]*dvm.Program, 3)
	for tid := 0; tid < 3; tid++ {
		tid := tid
		b := dvm.NewBuilder("p")
		v := b.Reg()
		b.Lock(dvm.Const(int64(tid)))
		b.Store(dvm.Const(int64(tid)), dvm.Const(int64(tid)+1))
		b.Unlock(dvm.Const(int64(tid)))
		b.Barrier(dvm.Const(0))
		// Every thread checks every other thread's write.
		sum := b.Reg()
		for o := int64(0); o < 3; o++ {
			b.Load(v, dvm.Const(o))
			b.Do(func(th *dvm.Thread) { th.AddR(sum, th.R(v)) })
		}
		b.Store(dvm.Const(10+int64(tid)), dvm.FromReg(sum))
		progs[tid] = b.Build()
	}
	dvm.Run(r.eng, progs)
	for tid := int64(0); tid < 3; tid++ {
		if got := r.read(10 + tid); got != 6 {
			t.Fatalf("thread %d saw sum %d, want 6 (barrier must publish all writes)", tid, got)
		}
	}
}

// TestCoarseningChainsRuns: consecutive disjoint critical sections coalesce
// into runs of the floor's length and chain into new runs afterwards (a fresh
// thread has not earned longer ones).
func TestCoarseningChainsRuns(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 8, 0, 0)
	b := dvm.NewBuilder("p")
	i := b.Reg()
	b.ForN(i, 4*runFloor, func() {
		l := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 8 })
		b.Lock(l)
		b.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 8 }), dvm.FromReg(i))
		b.Unlock(l)
	})
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if runs := r.spec.Runs.Load(); runs != 4 {
		t.Errorf("runs = %d, want 4 (%d CS at %d CS/run)", runs, 4*runFloor, runFloor)
	}
	if m := r.spec.MeanRunCS(); m != runFloor {
		t.Errorf("mean run = %.1f CS, want %d", m, runFloor)
	}
}

// TestProgressAfterRevert: the critical section immediately after a revert
// must execute conventionally (noSpecNext), visible as a conventional
// acquisition following every revert.
func TestProgressAfterRevert(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 50, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(0); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
	conv := r.spec.TotalAcquires.Load() - r.spec.SpecAcquires.Load()
	if r.spec.Reverts.Load() > 0 && conv == 0 {
		t.Error("reverts occurred but no conventional acquisitions followed")
	}
}

// TestWeakModeDeterministicCounter: TotalOrder-Weak preserves mutual
// exclusion and produces the correct value for race-free programs.
func TestWeakModeDeterministicCounter(t *testing.T) {
	r := newRig(t, Config{Mode: ModeWeak}, 4, 16, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 200, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(0); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

// TestWeakNondetMutualExclusion: the nondeterministic engine still provides
// mutual exclusion.
func TestWeakNondetMutualExclusion(t *testing.T) {
	r := newRig(t, Config{Mode: ModeWeakNondet}, 4, 16, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 200, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(0); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

// TestConfigValidation: New is the one place an inconsistent configuration
// is rejected — each with its own message — so nothing downstream has to
// defend against it (the flat memory window, for one, has no way to roll a
// speculation run back and relies on the first rule).
func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name, want string
		cfg        Config
		deps       Deps
	}{
		{"weak + speculation", "speculation requires ModeStrong",
			Config{Mode: ModeWeak, Speculation: true}, Deps{Arb: dlc.New(1), Mem: shmem.New(8)}},
		{"strong without heap", "ModeStrong requires a versioned heap",
			Config{Mode: ModeStrong}, Deps{Arb: dlc.New(1)}},
		{"weak without mem", "weak modes require direct shared memory",
			Config{Mode: ModeWeak}, Deps{Arb: dlc.New(1)}},
		{"arbiter/mode mismatch", "arbiter determinism does not match mode",
			Config{Mode: ModeWeakNondet}, Deps{Arb: dlc.New(1), Mem: shmem.New(8)}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			New(c.cfg, c.deps)
		}()
	}
}

// TestNoCoarseningOneCSRuns: with coarsening disabled every run is exactly
// one critical section.
func TestNoCoarseningOneCSRuns(t *testing.T) {
	cfg := lazyCfg()
	cfg.Spec.NoCoarsening = true
	r := newRig(t, cfg, 1, 64, 4, 0, 0)
	b := dvm.NewBuilder("p")
	i := b.Reg()
	b.ForN(i, 12, func() {
		l := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 4 })
		b.Lock(l)
		b.Unlock(l)
	})
	dvm.Run(r.eng, []*dvm.Program{b.Build()})
	if m := r.spec.MeanRunCS(); m != 1 {
		t.Errorf("mean run = %.1f CS, want exactly 1", m)
	}
	if runs := r.spec.Runs.Load(); runs != 12 {
		t.Errorf("runs = %d, want 12", runs)
	}
}

// TestNestedLocksFlattened: nested acquisitions extend the same run rather
// than starting new ones.
func TestNestedLocksFlattened(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 3, 0, 0)
	b := dvm.NewBuilder("p")
	b.Lock(dvm.Const(0))
	b.Lock(dvm.Const(1))
	b.Lock(dvm.Const(2))
	b.Store(dvm.Const(4), dvm.Const(1))
	b.Unlock(dvm.Const(2))
	b.Unlock(dvm.Const(1))
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})
	if runs := r.spec.Runs.Load(); runs != 1 {
		t.Errorf("runs = %d, want 1 (nesting flattens)", runs)
	}
	if cs := r.spec.CommittedCS.Load(); cs != 1 {
		t.Errorf("committed CS = %d, want 1 (nested CS count once)", cs)
	}
	if got := r.read(4); got != 1 {
		t.Errorf("word 4 = %d, want 1", got)
	}
}

// TestPerThreadStatsMode: with NoPerLockStats, lock histories are
// unused and the thread-level history drives decisions.
func TestPerThreadStatsMode(t *testing.T) {
	cfg := lazyCfg()
	cfg.Spec.NoPerLockStats = true
	r := newRig(t, cfg, 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 200, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(0); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	// Per-lock histories must remain untouched (all ones).
	for tid := 0; tid < 4; tid++ {
		if r.tbl.Locks[0].SpecHist[tid] != ^uint64(0) {
			t.Errorf("per-lock history written in per-thread mode (tid %d)", tid)
		}
	}
}

// TestAllAblationsTogether: the three Figure 11 ablations set at once each
// take effect — every run is one critical section, a syscall inside a run
// reverts it, and the revert lands in the thread's one history rather than
// the lock's.
func TestAllAblationsTogether(t *testing.T) {
	cfg := lazyCfg()
	cfg.Spec = SpecConfig{NoCoarsening: true, NoIrrevocable: true, NoPerLockStats: true}
	r := newRig(t, cfg, 1, 64, 4, 0, 0)
	count := 0
	var threadHist uint64
	b := dvm.NewBuilder("p")
	i := b.Reg()
	b.ForN(i, 12, func() {
		l := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 4 })
		b.Lock(l)
		b.Store(dvm.Const(8), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) }))
		b.Unlock(l)
	})
	b.Lock(dvm.Const(0))
	b.Syscall(&dvm.Syscall{Name: "write", Work: 10, Effect: func(*dvm.Thread) { count++ }})
	b.Unlock(dvm.Const(0))
	b.Do(func(th *dvm.Thread) { threadHist = r.eng.ts(th).pol.threadHist })
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if c, cs := r.spec.Commits.Load(), r.spec.CommittedCS.Load(); c != 12 || cs != 12 {
		t.Errorf("committed %d runs of %d CS, want 12 runs of one CS each (NoCoarsening)", c, cs)
	}
	if count != 1 || r.spec.Reverts.Load() != 1 {
		t.Errorf("syscall ran %d times with %d reverts, want 1 and 1 (NoIrrevocable)", count, r.spec.Reverts.Load())
	}
	if threadHist == ^uint64(0) {
		t.Error("thread history never recorded the revert (NoPerLockStats)")
	}
	if h := r.tbl.Locks[0].SpecHist[0]; h != ^uint64(0) {
		t.Errorf("lock 0 history = %#x, want untouched (NoPerLockStats)", h)
	}
	if got := r.read(8); got != 11 {
		t.Errorf("word 8 = %d, want 11", got)
	}
}
