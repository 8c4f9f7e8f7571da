package core

import (
	"fmt"
	"runtime"

	"lazydet/internal/dvm"
	"lazydet/internal/telemetry"
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

// sync publishes the thread's writes and re-bases its window on the newest
// state: the memory half of every acquisition, release and signal (DESIGN.md's
// "Visibility points" table). Caller holds the turn.
func (e *Engine) sync(t *dvm.Thread, ts *tstate) {
	e.publish(t, ts)
	ts.mem.Refresh()
}

// publish makes the thread's writes visible without a re-base — a parking
// thread's view is re-based at its deterministic wake, never at the
// wall-clock wake moment — and records the commit in the trace. Caller holds
// the turn.
func (e *Engine) publish(t *dvm.Thread, ts *tstate) {
	if !e.strong() {
		return // flat memory: every store is already global
	}
	defer phaseBegin("commit")()
	if e.audit != nil {
		e.audit.AtWindow(t.ID, ts.mem)
	}
	seq, ok := ts.mem.Publish()
	if !ok {
		return
	}
	my := e.arb.DLC(t.ID)
	e.rec.Commit(t.ID, my, seq)
	if e.tel != nil {
		e.tel.Span(t.ID, telemetry.SpanCommit, my, my, seq)
	}
	if e.audit != nil {
		e.audit.AtCommit(t.ID, seq)
	}
}

// Lock, RLock, Unlock and RUnlock implement dvm.Engine. A shared (read)
// hold differs from an exclusive one only in its mode bit: readers admit each
// other, and a read-only section invalidates no speculation (the direction
// of the paper's §6.2, at lock granularity).
func (e *Engine) Lock(t *dvm.Thread, l int64)    { e.acquire(t, l, true) }
func (e *Engine) RLock(t *dvm.Thread, l int64)   { e.acquire(t, l, false) }
func (e *Engine) Unlock(t *dvm.Thread, l int64)  { e.release(t, l, true) }
func (e *Engine) RUnlock(t *dvm.Thread, l int64) { e.release(t, l, false) }

// acquire takes l, exclusively if write. With speculation enabled it
// dispatches to the lazy path in spec.go; otherwise it acquires
// conventionally.
func (e *Engine) acquire(t *dvm.Thread, l int64, write bool) {
	ts := e.ts(t)
	if e.cfg.Speculation {
		e.lazyAcquire(t, ts, l, write)
		return
	}
	e.convLock(t, ts, l, write)
}

// release ends the thread's hold of l in the given mode.
func (e *Engine) release(t *dvm.Thread, l int64, write bool) {
	ts := e.ts(t)
	if ts.spec {
		e.specRelease(t, ts, l, write)
		return
	}
	e.convUnlock(t, ts, l, write)
}

// convLock performs a deterministic eager acquisition: wait for the turn,
// publish and refresh memory, and take the lock if it is free. A writer needs
// the lock free of readers too; a reader only of a writer. A lock held against
// the thread queues it and parks it at this turn; the release that frees the
// lock hands it off (wake), and the thread retries at its next turn, one DLC
// after the release. A free lock was always released in the thread's logical
// past: the releaser held the turn, so every clock was at least its release
// clock then (DESIGN.md §3b). Deterministic because lock state, the queue and
// the woken clocks change only at turns. The acquisition conflicts with no
// speculation run; only a release that stored does (convUnlock).
func (e *Engine) convLock(t *dvm.Thread, ts *tstate, l int64, write bool) {
	st := &e.tbl.Locks[l]
	for {
		e.waitCommitTurn(t)
		e.sync(t, ts)
		switch {
		case st.Owner == 0 && (!write || st.Readers == 0):
			h := heldLock{lock: l, stores: t.Stores(), write: write}
			e.hold(t.ID, h)
			ts.held = append(ts.held, h)
			if e.spec != nil {
				e.spec.TotalAcquires.Add(1)
			}
			e.rec.Sync(t.ID, acquireOp(write), l, e.arb.DLC(t.ID))
			e.arb.ReleaseTurn(t.ID, syncCost)
			return
		case e.arb.Nondet():
			// Nondeterministic mode has no logical clock to order a wake
			// behind the holder's release; yield and retry instead.
			e.arb.ReleaseTurn(t.ID, 0)
			runtime.Gosched()
		default:
			e.park(t, waiter{kind: waitLock, write: write, on: l})
		}
	}
}

// hold marks h's lock conventionally held by thread tid in h's mode: owned
// for an exclusive hold, one more reader for a shared one. Caller holds the
// turn.
func (e *Engine) hold(tid int, h heldLock) {
	if st := &e.tbl.Locks[h.lock]; h.write {
		st.Owner = int32(tid) + 1
	} else {
		st.Readers++
	}
}

// convUnlock releases a conventionally held lock at the turn, publishing the
// section's writes.
func (e *Engine) convUnlock(t *dvm.Thread, ts *tstate, l int64, write bool) {
	e.waitCommitTurn(t)
	e.sync(t, ts)
	if !write {
		st := &e.tbl.Locks[l]
		if st.Readers <= 0 {
			misuse("thread %d runlocks lock %d with no readers", t.ID, l)
		}
		if st.Readers--; st.Readers == 0 {
			e.wake(t, waitLock, l, false)
		}
		ts.drop(t, l, false)
	} else {
		e.unlockOwned(t, ts, l)
	}
	e.rec.Sync(t.ID, releaseOp(write), l, e.arb.DLC(t.ID))
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// unlockOwned frees the exclusively held l, advances its commit sequence if
// the section stored, and wakes the head of its queue. A shared release does
// neither of the first two: a read-only section invalidates no speculation
// (convUnlock wakes the queue when the last reader leaves). Caller holds the
// turn and has published.
func (e *Engine) unlockOwned(t *dvm.Thread, ts *tstate, l int64) {
	st := &e.tbl.Locks[l]
	if st.Owner != int32(t.ID)+1 {
		misuse("thread %d unlocks lock %d owned by %d", t.ID, l, st.Owner-1)
	}
	st.Owner = 0
	if _, wrote := ts.drop(t, l, true); wrote {
		// The critical section's writes became visible with this commit;
		// speculation runs based on older heap states conflict. A section
		// that stored nothing invalidates nobody.
		st.LastCommitSeq = e.pipe.Seq()
	}
	e.wake(t, waitLock, l, false)
}

// misuse panics on a program that breaks the synchronization contract: it
// releases a hold it does not have, or names a condition variable or barrier
// the table does not have. Such a program is wrong under every engine; the direct
// engine fails it too.
func misuse(format string, args ...any) {
	panic(fmt.Sprintf("core: "+format, args...))
}

// acquireOp and releaseOp are the trace events of a hold's mode.
func acquireOp(write bool) trace.Op {
	if write {
		return trace.OpAcquire
	}
	return trace.OpRAcquire
}

func releaseOp(write bool) trace.Op {
	if write {
		return trace.OpRelease
	}
	return trace.OpRRelease
}

// CondWait implements dvm.Engine: release l, park deterministically on cv,
// and reacquire l after being woken. Condition-variable operations require
// inter-thread communication, so a speculation run terminates first
// (commit if possible, revert otherwise — paper footnote 2).
func (e *Engine) CondWait(t *dvm.Thread, cv, l int64) {
	e.objectID(t, "condition variable", cv, e.tbl.Conds)
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return // reverted; the run re-executes conventionally
		}
	}
	e.waitCommitTurn(t)
	// Publish without a re-base: the view is re-based by the deterministic
	// re-acquisition after the wake, never at the wall-clock wake moment.
	e.publish(t, ts)
	e.unlockOwned(t, ts, l)
	e.rec.Sync(t.ID, trace.OpCondWait, cv, e.arb.DLC(t.ID))
	e.park(t, waiter{kind: waitCond, write: true, on: cv})
	// Woken: the signaler set our clock deterministically. The view is
	// refreshed by the deterministic re-acquisition below, never at the
	// (wall-clock-dependent) wake moment.
	e.rec.Sync(t.ID, trace.OpCondWake, cv, e.arb.DLC(t.ID))
	e.convLock(t, ts, l, true)
}

// CondSignal implements dvm.Engine: wake the longest-parked waiter on cv.
func (e *Engine) CondSignal(t *dvm.Thread, cv int64) { e.condWake(t, cv, trace.OpCondSignal) }

// CondBroadcast implements dvm.Engine: wake every waiter on cv.
func (e *Engine) CondBroadcast(t *dvm.Thread, cv int64) {
	e.condWake(t, cv, trace.OpCondBroadcast)
}

// condWake wakes cv's queue at the thread's turn, the head only for a signal
// and every waiter for a broadcast.
func (e *Engine) condWake(t *dvm.Thread, cv int64, op trace.Op) {
	e.objectID(t, "condition variable", cv, e.tbl.Conds)
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	e.waitCommitTurn(t)
	e.sync(t, ts)
	e.wake(t, waitCond, cv, op == trace.OpCondBroadcast)
	e.rec.Sync(t.ID, op, cv, e.arb.DLC(t.ID))
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// objectID fails a program that names a condition variable or barrier the
// table does not have. Neither indexes any state, only waiters in the queue,
// so nothing else would catch it.
func (e *Engine) objectID(t *dvm.Thread, kind string, id int64, n int) {
	if id < 0 || id >= int64(n) {
		misuse("thread %d uses %s %d of %d", t.ID, kind, id, n)
	}
}

// BarrierWait implements dvm.Engine: all threads of the run participate.
// The last arriver wakes the others with clocks derived from its own.
func (e *Engine) BarrierWait(t *dvm.Thread, bid int64) {
	e.objectID(t, "barrier", bid, e.tbl.Barriers)
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	e.waitCommitTurn(t)
	arrived := 1
	for _, w := range e.waiters {
		if w.kind == waitBarrier && w.on == bid {
			arrived++
		}
	}
	if arrived < e.tbl.NThreads {
		e.publish(t, ts)
		e.rec.Sync(t.ID, trace.OpBarrier, bid, e.arb.DLC(t.ID))
		e.park(t, waiter{kind: waitBarrier, on: bid})
		return
	}
	e.sync(t, ts)
	// A parked arrival only published, so its dirty set is empty: re-base it
	// on the commits of all arrivals here, at the releasing turn, before wake
	// hands it back. The wake's channel send orders this write before the
	// thread resumes.
	for _, w := range e.waiters {
		if w.kind == waitBarrier && w.on == bid {
			e.mems[w.tid].Refresh()
		}
	}
	e.rec.Sync(t.ID, trace.OpBarrier, bid, e.arb.DLC(t.ID))
	e.wake(t, waitBarrier, bid, true)
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// Syscall implements dvm.Engine. Outside speculation the call runs
// immediately; determinism of its inputs follows from strong isolation, but
// (as in the paper, §7) cross-thread I/O ordering is not determinized.
// During speculation the run is upgraded to irrevocable, or terminated,
// per the configuration (paper §3.5) — see spec.go.
func (e *Engine) Syscall(t *dvm.Thread, s *dvm.Syscall) {
	ts := e.ts(t)
	if ts.spec && !ts.irrevocable {
		// A run outside a critical section terminates (commits) instead
		// of upgrading, and the call then runs conventionally.
		if !e.enterIrrevocable(t, ts) {
			return // run reverted; the syscall re-executes after restart
		}
	}
	e.rec.Sync(t.ID, trace.OpSyscall, int64(s.Work), e.arb.DLC(t.ID))
	dvm.Burn(s.Work)
	if s.Effect != nil {
		s.Effect(t)
	}
	e.arb.Tick(t.ID, int64(s.Work))
}
