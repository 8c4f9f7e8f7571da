package core

import (
	"fmt"
	"runtime"
	"testing"

	"lazydet/internal/dvm"
)

// This file tests earned coarsening (policy.go's runLimit) end to end: a run
// may pass the floor, up to 64 critical sections, only while the thread's last
// 64 runs all committed. The hand rig of probe_test.go drives real Lock/Unlock
// calls, so run lengths are read off the engine's own commit statistics.

const floor, ceiling = runFloor, runCeiling

// runLengths runs n exclusive critical sections as thread tid, each on the
// next of the rig's locks, and returns the length of every run that committed
// on the way (a run ends at the acquisition that finds it at its limit).
func (h *hand) runLengths(tid, n int) []int64 {
	var lens []int64
	for i := 0; i < n; i++ {
		commits, cs := h.spec.Commits.Load(), h.spec.CommittedCS.Load()
		h.section(tid, int64(i%len(h.tbl.Locks)), true)
		if h.spec.Commits.Load() != commits {
			lens = append(lens, h.spec.CommittedCS.Load()-cs)
		}
	}
	return lens
}

// wantLengths checks that lens is floorRuns runs at the floor followed by the
// lengths in then.
func wantLengths(t *testing.T, lens []int64, floorRuns int, then ...int64) {
	t.Helper()
	if len(lens) != floorRuns+len(then) {
		t.Fatalf("%d runs committed %v, want %d at the floor and then %v", len(lens), lens, floorRuns, then)
	}
	for i, got := range lens {
		want := int64(floor)
		if i >= floorRuns {
			want = then[i-floorRuns]
		}
		if got != want {
			t.Fatalf("run %d spanned %d critical sections, want %d (all runs: %v)", i+1, got, want, lens)
		}
	}
}

// TestRunLimitIsEarned: a fresh thread's first 64 runs stop at the floor
// however cleanly they commit — the history starts all-failure — and the 65th
// spans 64 sections over 64 distinct locks.
func TestRunLimitIsEarned(t *testing.T) {
	h := newHand(t, lazyCfg(), 1, ceiling)
	ts := h.ts(0)
	if got := h.eng.pol.runLimit(&ts.pol); got != floor {
		t.Fatalf("a fresh thread's run limit = %d, want the floor %d", got, floor)
	}
	// 63 runs end at sections 9, 17, ..., 505; the 64th is open.
	wantLengths(t, h.runLengths(0, 63*floor+1), 63)
	if got := h.eng.pol.runLimit(&ts.pol); got != floor {
		t.Fatalf("run limit after 63 committed runs = %d, want the floor %d", got, floor)
	}
	// Seven more sections fill the 64th run, the next acquisition commits it
	// and begins the 65th, which then takes 64 sections before it chains.
	wantLengths(t, h.runLengths(0, floor+ceiling), 1, ceiling)
	if !ts.spec || ts.runCS != 1 {
		t.Fatalf("after the extended run: spec=%v runCS=%d, want a fresh chained run", ts.spec, ts.runCS)
	}
	if got := h.spec.ExtendedRuns.Load(); got != 1 {
		t.Fatalf("%d extended runs counted, want 1", got)
	}
	if r := h.spec.Reverts.Load(); r != 0 {
		t.Fatalf("a lone thread reverted %d times", r)
	}
}

// earn has thread 0 commit 64 floor-length runs and leaves it one section
// into the 65th, on lock 0, with the ceiling earned.
func earn(t *testing.T, h *hand) {
	t.Helper()
	if len(h.tbl.Locks)%floor != 0 {
		t.Fatalf("%d locks: the 65th run would not begin at lock 0", len(h.tbl.Locks))
	}
	wantLengths(t, h.runLengths(0, 64*floor+1), 64)
	if got := h.eng.pol.runLimit(&h.ts(0).pol); got != ceiling {
		t.Fatalf("run limit after 64 committed runs = %d, want %d", got, ceiling)
	}
}

// TestRunLimitResetsOnRevert: one failed validation puts the thread back at
// the floor until 64 further runs have committed. A foreign section that took
// the lock only to read fails nothing, and the thread keeps its ceiling.
func TestRunLimitResetsOnRevert(t *testing.T) {
	t.Run("foreign section that stored", func(t *testing.T) { runLimitAfterForeignSection(t, true) })
	t.Run("foreign read-only section", func(t *testing.T) { runLimitAfterForeignSection(t, false) })
}

func runLimitAfterForeignSection(t *testing.T, stores bool) {
	h := newHand(t, lazyCfg(), 2, ceiling)
	earn(t, h)
	// Thread 1 takes lock 0 conventionally, inside thread 0's open run.
	h.ts(1).noSpecNext = true
	if !stores {
		h.lockedRead(1, 0)
		h.do(0, func(e *Engine, th *dvm.Thread) {
			if !e.terminateRun(th, e.ts(th)) {
				t.Error("thread 0's run reverted across a read-only foreign section on its lock")
			}
		})
		if got := h.eng.pol.runLimit(&h.ts(0).pol); got != ceiling {
			t.Fatalf("run limit after a commit = %d, want the ceiling %d", got, ceiling)
		}
		if got := h.spec.Reverts.Load(); got != 0 {
			t.Fatalf("%d reverts, want 0", got)
		}
		return
	}
	h.section(1, 0, true)
	h.do(0, func(e *Engine, th *dvm.Thread) {
		if e.terminateRun(th, e.ts(th)) {
			t.Error("thread 0's run committed across a foreign section that stored under its lock")
		}
	})
	if got := h.eng.pol.runLimit(&h.ts(0).pol); got != floor {
		t.Fatalf("run limit after a revert = %d, want the floor %d", got, floor)
	}
	// The section after a revert is conventional (§3.2), then runs resume: 64
	// of them at the floor, and the 65th is extended again.
	h.section(0, 0, true)
	if h.ts(0).spec {
		t.Fatal("the section after a revert speculated")
	}
	wantLengths(t, h.runLengths(0, 64*floor+ceiling+1), 64, ceiling)
	if got := h.spec.Reverts.Load(); got != 1 {
		t.Fatalf("%d reverts, want the one the test caused", got)
	}
}

// TestRunLimitNoCoarsening: with coarsening off a run is one critical
// section whatever the thread has earned (Figure 11's ablation).
func TestRunLimitNoCoarsening(t *testing.T) {
	h := newHand(t, noCoarsening(), 1, ceiling)
	const n = 3 * ceiling
	for i, got := range h.runLengths(0, n) {
		if got != 1 {
			t.Fatalf("run %d spanned %d critical sections with coarsening off", i+1, got)
		}
	}
	if got := h.spec.Commits.Load(); got != n-1 {
		t.Fatalf("%d runs committed in %d sections, want %d", got, n, n-1)
	}
	if h.ts(0).pol.runHist != ^uint64(0) {
		t.Fatalf("run history %#x: the test never reached the state in which a coarsening engine extends", h.ts(0).pol.runHist)
	}
	if got := h.eng.pol.runLimit(&h.ts(0).pol); got != 1 {
		t.Fatalf("run limit = %d with coarsening off, want 1", got)
	}
	if got := h.spec.ExtendedRuns.Load(); got != 0 {
		t.Fatalf("%d extended runs counted with coarsening off", got)
	}
}

// TestRunLimitIrrevocable: a system call inside a critical section of an
// extended run upgrades it, and the run terminates at the release that leaves
// no lock held — exactly as at the floor (§3.5).
func TestRunLimitIrrevocable(t *testing.T) {
	h := newHand(t, lazyCfg(), 1, ceiling)
	earn(t, h)
	const before = 2 * floor // sections of the extended run ahead of the syscall's
	wantLengths(t, h.runLengths(0, before-1), 0)
	ts := h.ts(0)
	if ts.runCS != before {
		t.Fatalf("runCS = %d before the syscall's section, want %d", ts.runCS, before)
	}
	const l = 5
	commits, cs := h.spec.Commits.Load(), h.spec.CommittedCS.Load()
	h.do(0, func(e *Engine, th *dvm.Thread) { e.Lock(th, l) })
	h.do(0, func(e *Engine, th *dvm.Thread) { e.Syscall(th, &dvm.Syscall{Name: "test", Work: 1}) })
	if !ts.spec || !ts.irrevocable || h.spec.Upgrades.Load() != 1 {
		t.Fatalf("after the syscall: spec=%v irrevocable=%v upgrades=%d, want an upgraded open run", ts.spec, ts.irrevocable, h.spec.Upgrades.Load())
	}
	h.do(0, func(e *Engine, th *dvm.Thread) { e.Unlock(th, l) })
	if ts.spec || h.eng.irrevocableOwner != -1 {
		t.Fatalf("after the release: spec=%v irrevocableOwner=%d, want the run terminated", ts.spec, h.eng.irrevocableOwner)
	}
	if got := h.spec.Commits.Load() - commits; got != 1 {
		t.Fatalf("%d commits at the release, want 1", got)
	}
	if got := h.spec.CommittedCS.Load() - cs; got != before+1 {
		t.Fatalf("the irrevocable run spanned %d critical sections, want %d", got, before+1)
	}
	if got := h.spec.ExtendedRuns.Load(); got != 1 {
		t.Fatalf("%d extended runs counted, want 1", got)
	}
}

// extendingProgs is the program of TestExtendedRunsAreDeterministic: each
// thread increments its own cell under its own lock iters times, and the shared
// counter under lock threads every period-th iteration.
func extendingProgs(threads, iters int) []*dvm.Program {
	const counter = 0
	shared := int64(threads) // the lock after the private ones
	var progs []*dvm.Program
	for tid := 0; tid < threads; tid++ {
		b := dvm.NewBuilder(fmt.Sprintf("t%d", tid))
		i, v := b.Reg(), b.Reg()
		add := func(lock, cell int64) {
			b.Lock(dvm.Const(lock))
			b.Load(v, dvm.Const(cell))
			b.Store(dvm.Const(cell), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
			b.Unlock(dvm.Const(lock))
		}
		period := int64(577 + 50*tid) // first meeting inside each thread's first extended run
		b.ForN(i, int64(iters), func() {
			add(int64(tid), 8+int64(tid))
			b.If(func(th *dvm.Thread) bool { return th.R(i)%period == period-1 }, func() { add(shared, counter) })
		})
		progs = append(progs, b.Build())
	}
	return progs
}

// TestExtendedRunsAreDeterministic: four threads run long enough on private
// locks to earn the ceiling, and meet on one shared lock often enough that
// some extended runs fail validation. Trace signature, heap hash and every
// speculation count must not depend on GOMAXPROCS.
func TestExtendedRunsAreDeterministic(t *testing.T) {
	const threads, iters, counter = 4, 1500, 0
	type outcome struct {
		sig, heap                  uint64
		runs, reverts, extended, n int64
	}
	run := func() outcome {
		r := newRig(t, lazyCfg(), threads, 64, threads+1, 0, 0)
		dvm.Run(r.eng, extendingProgs(threads, iters))
		for tid := int64(0); tid < threads; tid++ {
			if got := r.read(8 + tid); got != iters {
				t.Fatalf("thread %d's cell = %d, want %d", tid, got, iters)
			}
		}
		return outcome{r.rec.Signature(), r.heap.Hash(), r.spec.Runs.Load(), r.spec.Reverts.Load(),
			r.spec.ExtendedRuns.Load(), r.read(counter)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref outcome
	for i, procs := range []int{1, 4, 1, 4} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if i == 0 {
			ref = got
			t.Logf("%+v", ref)
			if ref.extended == 0 || ref.reverts == 0 {
				t.Fatalf("%+v: the program must extend runs and revert some, or the test shows nothing", ref)
			}
			continue
		}
		if got != ref {
			t.Fatalf("GOMAXPROCS=%d: %+v, first run %+v", procs, got, ref)
		}
	}
}

// burstProgs is the burst fingerprint workload's shape (harness's
// elision_test.go): each thread owns a lock and a word and alternates heavy
// compute with bursts of reacquisitions, staggered so the bursts are disjoint
// in logical time — grant chaining's target.
func burstProgs(threads int) []*dvm.Program {
	const bursts, burstLen, heavy = 10, 20, 10_000
	var progs []*dvm.Program
	for tid := 0; tid < threads; tid++ {
		b := dvm.NewBuilder(fmt.Sprintf("burst-%d", tid))
		i, j, v := b.Reg(), b.Reg(), b.Reg()
		lock, addr := dvm.Const(int64(tid)), dvm.Const(int64(tid))
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
		progs = append(progs, b.Build())
	}
	return progs
}

// exitWatch keeps every thread's policy state as the thread leaves: ThreadExit
// ends the thread's last run, so only then is its run history final.
type exitWatch struct {
	*Engine
	th []threadPolicy
}

func (w *exitWatch) ThreadExit(t *dvm.Thread) bool {
	if !w.Engine.ThreadExit(t) {
		return false
	}
	w.th[t.ID] = w.ts(t).pol
	return true
}

// policyWords is every history word of a finished run, in a fixed order.
func policyWords(r *rig, th []threadPolicy) []uint64 {
	var words []uint64
	for _, st := range r.tbl.Locks {
		words = append(words, st.SpecHist...)
	}
	for _, tp := range th {
		words = append(words, tp.runHist, tp.threadHist)
	}
	return words
}

// TestPolicyStateIsDeterministic: every policy word — each (lock, thread)
// SpecHist and each thread's run and thread histories — is the same at the
// end of a run at GOMAXPROCS 1, 2, 4 and 8. A policy race can leave the heap
// and every counter unchanged and still move these words, so the words are
// compared themselves: on the extending program, where reverts move SpecHist
// words and runs earn the ceiling, and on the burst shape, where runs commit
// in grant chains.
func TestPolicyStateIsDeterministic(t *testing.T) {
	const threads = 4
	for _, c := range []struct {
		name  string
		cfg   Config
		locks int
		progs func() []*dvm.Program
		live  func(*rig, []threadPolicy) bool // the run moved the words it is here for
	}{
		{"extending/LazyDet", lazyCfg(), threads + 1, func() []*dvm.Program { return extendingProgs(threads, 1500) },
			func(r *rig, th []threadPolicy) bool { return movedOffSeed(r) && earnedRuns(th) }},
		{"burst/LazyDet", lazyCfg(), threads, func() []*dvm.Program { return burstProgs(threads) },
			func(_ *rig, th []threadPolicy) bool { return th[0].runHist != 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			var ref []uint64
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				r := newRig(t, c.cfg, threads, 64, c.locks, 0, 0)
				w := &exitWatch{Engine: r.eng, th: make([]threadPolicy, threads)}
				dvm.Run(w, c.progs())
				got := policyWords(r, w.th)
				if ref == nil {
					ref = got
					if !c.live(r, w.th) {
						t.Fatalf("the run left the policy words it is here for at their seeds: it exercises too little of the policy")
					}
					continue
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("GOMAXPROCS=%d: policy word %d = %#x, %#x at GOMAXPROCS=1", procs, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// movedOffSeed reports whether any (lock, thread) speculation history left its
// all-success seed: some run reverted or some probe missed.
func movedOffSeed(r *rig) bool {
	for _, st := range r.tbl.Locks {
		for _, h := range st.SpecHist {
			if h != ^uint64(0) {
				return true
			}
		}
	}
	return false
}

// earnedRuns reports whether any thread's last 64 runs all committed.
func earnedRuns(th []threadPolicy) bool {
	for _, tp := range th {
		if tp.runHist == ^uint64(0) {
			return true
		}
	}
	return false
}
