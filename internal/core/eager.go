package core

import (
	"fmt"
	"runtime"

	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
	"lazydet/internal/trace"
)

// This file implements the eager, totally ordered synchronization protocol
// shared by Consequence, TotalOrder-Weak and TotalOrder-Weak-Nondet, and
// used by LazyDet for its non-speculative ("conventional") path. Every
// operation waits for the deterministic turn, then publishes and refreshes
// the thread's memory window through the shared pipeline (internal/mempipe)
// — in strong mode that commits the thread's dirty pages and re-bases its
// view, which is what makes writes visible "only as a result of
// synchronization operations" (paper §2); on flat memory both halves are
// no-ops and the pipeline's sequence number is constant 0, so the
// lock-table sequence updates below are inert. One choreography, every
// engine.

// Lock implements dvm.Engine. With speculation enabled it dispatches to the
// lazy path in spec.go; otherwise it acquires conventionally.
func (e *Engine) Lock(t *dvm.Thread, l int64) {
	ts := e.ts(t)
	if e.cfg.Speculation {
		e.lazyAcquire(t, ts, l, true)
		return
	}
	e.convLock(t, ts, l)
}

// Unlock implements dvm.Engine.
func (e *Engine) Unlock(t *dvm.Thread, l int64) {
	ts := e.ts(t)
	if ts.spec {
		e.specRelease(t, ts, l)
		return
	}
	e.convUnlock(t, ts, l)
}

// convLock performs a deterministic eager acquisition: wait for the turn,
// publish and refresh memory, and take the lock if it is free and was
// released in the logical past. Otherwise charge a quantum to the clock and
// re-queue — the Kendo retry discipline, deterministic because lock state
// only changes at turns and release times are recorded in logical time.
func (e *Engine) convLock(t *dvm.Thread, ts *tstate, l int64) {
	st := &e.tbl.Locks[l]
	backoff := quantum
	for {
		e.waitCommitTurn(t)
		// A reacquisition is not a cross-thread visibility point, so the
		// thread's own deferred publication (if any) stays outstanding — the
		// same-owner elision win.
		e.sync(t, ts, mempipe.Acquire, noLock)
		my := e.arb.DLC(t.ID)
		if st.Owner == 0 && st.Readers == 0 && (e.arb.Nondet() || st.ReleaseDLC <= my) {
			e.pol.convAcquired(&ts.pol, ts.depth, l, true, my)
			st.Owner = int32(t.ID) + 1
			st.LastAcquireDLC = my
			// The acquisition itself invalidates concurrent runs under
			// the paper's G_l discipline.
			st.LastCommitSeq = e.pipe.Seq()
			st.Acquires++
			ts.depth++
			ts.heldConv = append(ts.heldConv, l)
			if e.spec != nil {
				e.spec.TotalAcquires.Add(1)
			}
			e.rec.Sync(t.ID, trace.OpAcquire, l, my)
			e.arb.ReleaseTurn(t.ID, syncCost)
			return
		}
		e.arb.ReleaseTurn(t.ID, backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
		if e.arb.Nondet() {
			// Nondeterministic mode has no logical clock to order the
			// retry behind the holder's release; yield instead of
			// spinning on the global serialization point.
			runtime.Gosched()
		}
	}
}

// convUnlock releases a conventionally held lock at the turn, recording the
// release time for deterministic future acquires. The release publication is
// the elision point: when the lock's policy allows, the commit is deferred
// at a reserved sequence instead of performed (elide.go).
func (e *Engine) convUnlock(t *dvm.Thread, ts *tstate, l int64) {
	e.waitCommitTurn(t)
	e.sync(t, ts, mempipe.Release, l)
	st := &e.tbl.Locks[l]
	if st.Owner != int32(t.ID)+1 {
		panic(fmt.Sprintf("core: thread %d unlocks lock %d owned by %d", t.ID, l, st.Owner-1))
	}
	st.Owner = 0
	st.ReleaseDLC = e.arb.DLC(t.ID)
	ts.depth--
	dropLast(&ts.heldConv, l)
	// The critical section's writes became visible with this commit;
	// speculation runs based on older heap states conflict.
	st.LastCommitSeq = e.pipe.Seq()
	e.pol.convReleased(&ts.pol, l, st.LastCommitSeq)
	e.rec.Sync(t.ID, trace.OpRelease, l, st.ReleaseDLC)
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// CondWait implements dvm.Engine: release l, park deterministically on cv,
// and reacquire l after being woken. Condition-variable operations require
// inter-thread communication, so a speculation run terminates first
// (commit if possible, revert otherwise — paper footnote 2).
func (e *Engine) CondWait(t *dvm.Thread, cv, l int64) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return // reverted; the run re-executes conventionally
		}
	}
	e.waitCommitTurn(t)
	// Park, not Signal: the view is re-based by the deterministic
	// re-acquisition after the wake, never at the wall-clock wake moment.
	// Parking is a cross-thread visibility point, so deferred publications
	// settle here — which also keeps any flush pinned to a later wake
	// sequence a deterministic no-op.
	e.sync(t, ts, mempipe.Park, noLock)
	my := e.arb.DLC(t.ID)
	st := &e.tbl.Locks[l]
	st.Owner = 0
	st.ReleaseDLC = my
	ts.depth--
	dropLast(&ts.heldConv, l)
	st.LastCommitSeq = e.pipe.Seq()
	c := &e.tbl.Conds[cv]
	c.Waiters = append(c.Waiters, t.ID)
	e.rec.Sync(t.ID, trace.OpCondWait, cv, my)
	e.arb.Park(t.ID)
	e.blockedWake(t)
	// Woken: the signaler set our clock deterministically via Unpark. The
	// view is refreshed by the deterministic re-acquisition below, never
	// at the (wall-clock-dependent) wake moment.
	e.rec.Sync(t.ID, trace.OpCondWake, cv, e.arb.DLC(t.ID))
	e.convLock(t, ts, l)
}

// CondSignal implements dvm.Engine: wake the longest-parked waiter, giving
// it a clock derived from the signaler's — deterministic because both the
// queue order and the signal point are turn-ordered.
func (e *Engine) CondSignal(t *dvm.Thread, cv int64) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	e.waitCommitTurn(t)
	e.sync(t, ts, mempipe.Signal, noLock)
	my := e.arb.DLC(t.ID)
	c := &e.tbl.Conds[cv]
	if len(c.Waiters) > 0 {
		w := c.Waiters[0]
		c.Waiters = c.Waiters[1:]
		e.arb.Unpark(w, my+1)
		e.tbl.Wake(w)
	}
	e.rec.Sync(t.ID, trace.OpCondSignal, cv, my)
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// CondBroadcast implements dvm.Engine.
func (e *Engine) CondBroadcast(t *dvm.Thread, cv int64) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	e.waitCommitTurn(t)
	e.sync(t, ts, mempipe.Signal, noLock)
	my := e.arb.DLC(t.ID)
	c := &e.tbl.Conds[cv]
	for k, w := range c.Waiters {
		e.arb.Unpark(w, my+1+int64(k))
		e.tbl.Wake(w)
	}
	c.Waiters = c.Waiters[:0]
	e.rec.Sync(t.ID, trace.OpCondBroadcast, cv, my)
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// BarrierWait implements dvm.Engine: all threads of the run participate.
// The last arriver wakes the others with clocks derived from its own.
func (e *Engine) BarrierWait(t *dvm.Thread, bid int64) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	e.waitCommitTurn(t)
	b := &e.tbl.Barriers[bid]
	last := len(b.Waiting)+1 == e.tbl.NThreads
	// A barrier arrival is a cross-thread visibility point: every released
	// thread re-bases on the arrivals' combined state, so deferred
	// publications settle here — and the woken threads' RefreshTo flushes,
	// bounded by ReleaseSeq, stay deterministic no-ops. The last arriver does
	// not park, so it re-bases at its own turn.
	p := mempipe.Park
	if last {
		p = mempipe.Signal
	}
	e.sync(t, ts, p, noLock)
	my := e.arb.DLC(t.ID)
	e.rec.Sync(t.ID, trace.OpBarrier, bid, my)
	if last {
		// Record the state every released thread adopts: the commits of
		// all arrivals, published by their turns.
		b.ReleaseSeq = e.pipe.Seq()
		for k, w := range b.Waiting {
			e.arb.Unpark(w, my+1+int64(k))
			e.tbl.Wake(w)
		}
		b.Waiting = b.Waiting[:0]
		e.arb.ReleaseTurn(t.ID, syncCost)
		return
	}
	b.Waiting = append(b.Waiting, t.ID)
	e.arb.Park(t.ID)
	e.blockedWake(t)
	// Re-base on exactly the releasing turn's state, not on whatever has
	// been committed by the wall-clock moment we woke.
	ts.mem.RefreshTo(b.ReleaseSeq)
}

// Syscall implements dvm.Engine. Outside speculation the call runs
// immediately; determinism of its inputs follows from strong isolation, but
// (as in the paper, §7) cross-thread I/O ordering is not determinized.
// During speculation the run is upgraded to irrevocable, or terminated,
// per the configuration (paper §3.5) — see spec.go.
func (e *Engine) Syscall(t *dvm.Thread, s *dvm.Syscall) {
	ts := e.ts(t)
	if ts.spec && !ts.irrevocable {
		if !e.enterIrrevocable(t, ts) {
			return // run reverted; the syscall re-executes after restart
		}
		if !ts.spec {
			// The run terminated (committed) instead of upgrading;
			// fall through to a conventional call.
		}
	}
	e.rec.Sync(t.ID, trace.OpSyscall, int64(s.Work), e.arb.DLC(t.ID))
	dvm.Burn(s.Work)
	if s.Effect != nil {
		s.Effect(t)
	}
	e.arb.Tick(t.ID, int64(s.Work))
}
