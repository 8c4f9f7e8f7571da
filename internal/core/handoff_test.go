package core

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// This file pins the hand-off of deterministic waits: a thread that finds a
// lock held or another run irrevocable, or that waits on a condition
// variable or a barrier, parks at its turn, and the event that frees it
// wakes it one DLC after the waker's turn (the k-th woken, k DLC later
// still).

// waitRig is an engine on a versioned heap, with one condition variable and
// one barrier, whose trace keeps every event and whose telemetry keeps spans,
// so tests can read the DLC of each event and count each thread's turn waits.
type waitRig struct {
	eng *Engine
	rec *trace.Recorder
	tel *telemetry.Recorder
}

func newWaitRig(cfg Config, threads, locks int) *waitRig {
	w := &waitRig{rec: trace.NewLogging(threads), tel: telemetry.NewWithSpans(threads)}
	w.eng = New(cfg, Deps{
		Arb:  dlc.New(threads),
		Tbl:  detsync.NewTable(threads, locks, 1, 1, cfg.Speculation),
		Heap: vheap.New(64),
		Rec:  w.rec,
		Spec: &stats.Spec{},
		Tel:  w.tel,
	})
	return w
}

// at returns the DLC of thread tid's n-th event of kind op on obj (n from 0).
func (w *waitRig) at(t *testing.T, tid int, op trace.Op, obj int64, n int) int64 {
	t.Helper()
	for _, ev := range w.rec.ThreadLog(tid) {
		if ev.Kind == op && ev.Obj == obj {
			if n == 0 {
				return ev.DLC
			}
			n--
		}
	}
	t.Fatalf("thread %d has no such event; log %v", tid, w.rec.ThreadLog(tid))
	return 0
}

// turnWaits counts thread tid's waits for a commit-capable turn.
func (w *waitRig) turnWaits(tid int) int {
	n := 0
	for _, sp := range w.tel.ThreadSpans(tid) {
		if sp.Kind == telemetry.SpanTurnWait {
			n++
		}
	}
	return n
}

// spin emits n iterations of an empty loop: logical time passing without
// synchronization.
func spin(b *dvm.Builder, n int64) {
	i := b.Reg()
	b.ForN(i, n, func() { b.Do(func(*dvm.Thread) {}) })
}

// TestLockWaiterAcquiresAtRelease: a thread that finds the lock held across a
// long section parks once and acquires at exactly the holder's release DLC + 1.
// Retrying with a growing backoff would overshoot the release instead.
func TestLockWaiterAcquiresAtRelease(t *testing.T) {
	for _, cfg := range []Config{{Mode: ModeStrong}, lazyCfg()} {
		w := newWaitRig(cfg, 2, 1)
		if cfg.Speculation {
			// Neither thread speculates on the lock: both take it
			// conventionally, so the waiter's path is LazyDet's eager one.
			w.eng.tbl.Locks[0].SpecHist[0], w.eng.tbl.Locks[0].SpecHist[1] = 0, 0
		}
		h := dvm.NewBuilder("holder")
		h.Lock(dvm.Const(0))
		spin(h, 500)
		h.Unlock(dvm.Const(0))
		c := dvm.NewBuilder("waiter")
		spin(c, 5)
		c.Lock(dvm.Const(0))
		c.Unlock(dvm.Const(0))
		dvm.Run(w.eng, []*dvm.Program{h.Build(), c.Build()})

		rel := w.at(t, 0, trace.OpRelease, 0, 0)
		if got := w.at(t, 1, trace.OpAcquire, 0, 0); got != rel+1 {
			t.Errorf("%s: waiter acquired at DLC %d, want the release %d + 1", w.eng.Name(), got, rel)
		}
		// The park, the acquiring turn, the release and the exit.
		if n := w.turnWaits(1); n != 4 {
			t.Errorf("%s: waiter took %d turns, want 4 (one park)", w.eng.Name(), n)
		}
	}
}

// TestCommitBlockedByIrrevocableRun: a thread that reaches its commit turn
// while another run is irrevocable parks, and that run's commit wakes it: it
// commits at that commit's DLC + 1.
func TestCommitBlockedByIrrevocableRun(t *testing.T) {
	w := newWaitRig(lazyCfg(), 2, 2)
	irr := dvm.NewBuilder("irrevocable")
	irr.Lock(dvm.Const(0))
	irr.Syscall(&dvm.Syscall{Work: 1}) // upgrades the run inside its section
	spin(irr, 500)
	irr.Unlock(dvm.Const(0)) // the first point with no lock held: commits
	o := dvm.NewBuilder("other")
	spin(o, 50)
	o.Lock(dvm.Const(1))
	o.Store(dvm.Const(9), dvm.Const(1))
	o.Unlock(dvm.Const(1)) // the run commits at exit
	dvm.Run(w.eng, []*dvm.Program{irr.Build(), o.Build()})

	if n := w.eng.spec.Upgrades.Load(); n != 1 {
		t.Fatalf("%d irrevocable upgrades, want 1", n)
	}
	commit := w.at(t, 0, trace.OpSpecCommit, 1, 0)
	if got := w.at(t, 1, trace.OpSpecCommit, 1, 0); got != commit+1 {
		t.Errorf("blocked run committed at DLC %d, want the irrevocable commit %d + 1", got, commit)
	}
}

// TestReadersAdmittedTogether: readers queued behind a writer are all woken
// by its release and admitted in park order, at the release DLC + 1, + 2, + 3.
func TestReadersAdmittedTogether(t *testing.T) {
	const readers = 3
	w := newWaitRig(Config{Mode: ModeStrong}, readers+1, 1)
	wr := dvm.NewBuilder("writer")
	wr.Lock(dvm.Const(0))
	spin(wr, 500)
	wr.Unlock(dvm.Const(0))
	progs := []*dvm.Program{wr.Build()}
	for r := 0; r < readers; r++ {
		b := dvm.NewBuilder("reader")
		spin(b, 5)
		b.RLock(dvm.Const(0))
		spin(b, 50)
		b.RUnlock(dvm.Const(0))
		progs = append(progs, b.Build())
	}
	dvm.Run(w.eng, progs)

	rel := w.at(t, 0, trace.OpRelease, 0, 0)
	for tid := 1; tid <= readers; tid++ {
		if got := w.at(t, tid, trace.OpRAcquire, 0, 0); got != rel+int64(tid) {
			t.Errorf("reader %d admitted at DLC %d, want the release %d + %d", tid, got, rel, tid)
		}
	}
}

// condWaiter waits on condition variable 0 under its own lock l, so waiters
// never contend for a lock and park at their first turn.
func condWaiter(l int64) *dvm.Program {
	b := dvm.NewBuilder("cond-waiter")
	b.Lock(dvm.Const(l))
	b.CondWait(dvm.Const(0), dvm.Const(l))
	b.Unlock(dvm.Const(l))
	return b.Build()
}

// TestCondSignalWakesHeadAtSignal: each signal wakes only the longest-parked
// waiter, which resumes at the signal's DLC + 1.
func TestCondSignalWakesHeadAtSignal(t *testing.T) {
	w := newWaitRig(Config{Mode: ModeStrong}, 3, 2)
	s := dvm.NewBuilder("signaller")
	spin(s, 500)
	s.CondSignal(dvm.Const(0))
	spin(s, 500)
	s.CondSignal(dvm.Const(0))
	dvm.Run(w.eng, []*dvm.Program{condWaiter(0), condWaiter(1), s.Build()})

	for tid := 0; tid < 2; tid++ {
		sig := w.at(t, 2, trace.OpCondSignal, 0, tid)
		if got := w.at(t, tid, trace.OpCondWake, 0, 0); got != sig+1 {
			t.Errorf("waiter %d resumed at DLC %d, want signal %d's %d + 1", tid, got, tid, sig)
		}
	}
}

// TestCondBroadcastWakesAllInParkOrder: a broadcast wakes every waiter, the
// k-th parked at the broadcast's DLC + 1 + k.
func TestCondBroadcastWakesAllInParkOrder(t *testing.T) {
	const waiters = 3
	w := newWaitRig(Config{Mode: ModeStrong}, waiters+1, waiters)
	var progs []*dvm.Program
	for l := int64(0); l < waiters; l++ {
		progs = append(progs, condWaiter(l))
	}
	b := dvm.NewBuilder("broadcaster")
	spin(b, 500)
	b.CondBroadcast(dvm.Const(0))
	dvm.Run(w.eng, append(progs, b.Build()))

	bc := w.at(t, waiters, trace.OpCondBroadcast, 0, 0)
	for tid := 0; tid < waiters; tid++ {
		if got := w.at(t, tid, trace.OpCondWake, 0, 0); got != bc+1+int64(tid) {
			t.Errorf("waiter %d resumed at DLC %d, want the broadcast %d + %d", tid, got, bc, 1+tid)
		}
	}
}

// TestBarrierWakesAfterLastArrival: the last arrival wakes the
// threads parked at the barrier, the k-th at its DLC + 1 + k. Each woken
// thread then takes its own free lock after one unit for the barrier
// instruction, so the acquisition reads the resume clock.
func TestBarrierWakesAfterLastArrival(t *testing.T) {
	const waiters = 3
	w := newWaitRig(Config{Mode: ModeStrong}, waiters+1, waiters)
	var progs []*dvm.Program
	for l := int64(0); l < waiters; l++ {
		b := dvm.NewBuilder("early")
		spin(b, 5)
		b.Barrier(dvm.Const(0))
		b.Lock(dvm.Const(l))
		b.Unlock(dvm.Const(l))
		progs = append(progs, b.Build())
	}
	last := dvm.NewBuilder("last")
	spin(last, 500)
	last.Barrier(dvm.Const(0))
	dvm.Run(w.eng, append(progs, last.Build()))

	arrival := w.at(t, waiters, trace.OpBarrier, 0, 0)
	for tid := 0; tid < waiters; tid++ {
		if got := w.at(t, tid, trace.OpAcquire, int64(tid), 0) - 1; got != arrival+1+int64(tid) {
			t.Errorf("waiter %d resumed at DLC %d, want the last arrival %d + %d", tid, got, arrival, 1+tid)
		}
	}
}

// TestBarrierReleaseRebasesAtTheTurn: the last arrival re-bases every parked
// arrival at its own turn, so the moment its BarrierWait returns, the parked
// thread's window already reads the last arrival's commit. On one P the woken
// goroutine has not run yet, so a re-base it made itself would not show.
func TestBarrierReleaseRebasesAtTheTurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := newWaitRig(Config{Mode: ModeStrong}, 2, 0)
	last := dvm.NewBuilder("last")
	spin(last, 500)
	last.Store(dvm.Const(3), dvm.Const(7))
	last.Barrier(dvm.Const(0))
	var base, seq int64
	last.Do(func(*dvm.Thread) { base, seq = w.eng.mems[1].BaseSeq(), w.eng.pipe.Seq() })
	early := dvm.NewBuilder("early")
	spin(early, 5)
	early.Barrier(dvm.Const(0))
	dvm.Run(w.eng, []*dvm.Program{last.Build(), early.Build()})

	if base != seq {
		t.Errorf("parked arrival based at %d when the release returned, want the releasing turn's %d", base, seq)
	}
}

// TestReleaseWakesOnlyItsLock: a thread parked on condition variable 0 and one
// parked on lock 0 share the queue and the object id; the lock's release wakes
// the lock waiter alone, and the condition waiter resumes only at the signal.
func TestReleaseWakesOnlyItsLock(t *testing.T) {
	w := newWaitRig(Config{Mode: ModeStrong}, 3, 2)
	h := dvm.NewBuilder("holder")
	h.Lock(dvm.Const(0))
	spin(h, 500)
	h.Unlock(dvm.Const(0))
	spin(h, 500)
	h.CondSignal(dvm.Const(0))
	l := dvm.NewBuilder("lock-waiter")
	spin(l, 5)
	l.Lock(dvm.Const(0))
	l.Unlock(dvm.Const(0))
	dvm.Run(w.eng, []*dvm.Program{condWaiter(1), h.Build(), l.Build()})

	rel := w.at(t, 1, trace.OpRelease, 0, 0)
	if got := w.at(t, 2, trace.OpAcquire, 0, 0); got != rel+1 {
		t.Errorf("lock waiter acquired at DLC %d, want the release %d + 1", got, rel)
	}
	sig := w.at(t, 1, trace.OpCondSignal, 0, 0)
	if got := w.at(t, 0, trace.OpCondWake, 0, 0); got != sig+1 {
		t.Errorf("condition waiter resumed at DLC %d, want the signal %d + 1 (the release %d must not wake it)", got, sig, rel)
	}
}

// TestLockInversionDeadlockPanics: two threads taking two locks in opposite
// orders deadlock. Both park on the lock the other holds, so the arbiter sees
// every thread parked and panics naming lock waits. The run happens in a
// child process (this test binary, re-executed), because the panic ends it.
func TestLockInversionDeadlockPanics(t *testing.T) {
	if os.Getenv("CORE_TEST_LOCK_INVERSION") == "1" {
		w := newWaitRig(Config{Mode: ModeStrong}, 2, 2)
		var progs []*dvm.Program
		for _, order := range [][2]int64{{0, 1}, {1, 0}} {
			b := dvm.NewBuilder("inversion")
			b.Lock(dvm.Const(order[0]))
			spin(b, 50)
			b.Lock(dvm.Const(order[1]))
			b.Unlock(dvm.Const(order[1]))
			b.Unlock(dvm.Const(order[0]))
			progs = append(progs, b.Build())
		}
		dvm.Run(w.eng, progs)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestLockInversionDeadlockPanics$")
	cmd.Env = append(os.Environ(), "CORE_TEST_LOCK_INVERSION=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("the inverted run was still going after 30 s; output:\n%s", out)
	}
	if err == nil || !strings.Contains(string(out), "dlc: deterministic deadlock") ||
		!strings.Contains(string(out), "lock or irrevocable run") {
		t.Fatalf("want the deterministic-deadlock panic naming lock waits, got err %v; output:\n%s", err, out)
	}
}
