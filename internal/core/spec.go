package core

import (
	"time"

	"lazydet/internal/dvm"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
)

// This file implements lazy determinism (paper §3): speculative order
// elision, lock-level conflict detection, commit and revert, adaptive
// speculation, and irrevocable upgrade.

// lazyAcquire is the LazyDet lock-acquisition path, exclusive (write) or
// shared (logged as a read). Every acquisition at critical-section depth 0 is
// a decision point: begin a run, continue the current run, terminate it, or
// fall back to a conventional acquisition (Figure 3 in the paper).
func (e *Engine) lazyAcquire(t *dvm.Thread, ts *tstate, l int64, write bool) {
	if ts.spec {
		if len(ts.held) > 0 {
			// Nested acquisition inside a speculative critical
			// section: nesting is flattened into the run (§6.2).
			e.specAcquire(t, ts, l, write)
			return
		}
		want := e.pol.speculate(&ts.pol, l)
		if want && ts.runCS < e.pol.runLimit(&ts.pol) {
			e.specAcquire(t, ts, l, write)
			return
		}
		if !e.terminateRun(t, ts) {
			return // reverted: execution restarts from the snapshot
		}
		if want {
			// The run only ended because it hit its coarsening
			// limit; chain a fresh run starting at this lock.
			e.beginRun(t, ts)
			e.specAcquire(t, ts, l, write)
			return
		}
	} else if len(ts.held) == 0 && !ts.noSpecNext && e.pol.speculate(&ts.pol, l) {
		e.beginRun(t, ts)
		e.specAcquire(t, ts, l, write)
		return
	}
	// Progress guarantee: after a revert the next critical section runs
	// without speculation (§3.2).
	ts.noSpecNext = false
	e.convLock(t, ts, l, write)
}

// beginRun starts a speculation run at the current lock acquisition:
// snapshot thread state for roll-back and record BEGIN_i and the heap
// sequence the run's reads are based on (§3.1). Both snapshots are rebuilt
// into per-thread scratch buffers, so steady-state BEGINs allocate nothing.
func (e *Engine) beginRun(t *dvm.Thread, ts *tstate) {
	ts.snapScratch = t.SnapshotInto(ts.snapScratch)
	ts.snap = ts.snapScratch
	ts.dirtyScratch = ts.mem.SnapshotDirtyInto(ts.dirtyScratch)
	ts.dirtySnap = ts.dirtyScratch
	ts.begin = e.arb.DLC(t.ID)
	ts.baseAtBegin = ts.mem.BaseSeq()
	ts.spec = true
	ts.runCS = 0
}

// specAcquire records a speculative acquisition in the thread-local log
// L_i. No coordination with other threads happens (§3.1). Shared-mode
// acquisitions (write = false) are logged as reads, which never conflict
// with other readers.
func (e *Engine) specAcquire(t *dvm.Thread, ts *tstate, l int64, write bool) {
	rec := ts.log.acquire(l, write)
	ts.held = append(ts.held, heldLock{lock: l, stores: t.Stores(), rec: rec, write: write})
	if len(ts.held) == 1 {
		ts.runCS++
	}
	if e.spec != nil {
		e.spec.TotalAcquires.Add(1)
		e.spec.SpecAcquires.Add(1)
	}
	e.rec.Sync(t.ID, acquireOp(write), l, e.arb.DLC(t.ID))
}

// specRelease records a speculative release, and in the log whether an
// exclusive section stored. An irrevocable run terminates at the first point
// where no locks are held (§3.5).
func (e *Engine) specRelease(t *dvm.Thread, ts *tstate, l int64, write bool) {
	if h, wrote := ts.drop(t, l, write); write && wrote {
		ts.log.locks[h.rec].wrote = true
	}
	e.rec.Sync(t.ID, releaseOp(write), l, e.arb.DLC(t.ID))
	if ts.irrevocable && len(ts.held) == 0 {
		e.terminateRun(t, ts) // commits: irrevocable runs never revert
	}
}

// validate is conflict detection (§3.2): the run fails if any lock it
// recorded is currently held non-speculatively, or had a critical section
// that stored under it committed since the run's heap base. Detection is on
// locks — never on data addresses — since lock-level detection plus
// versioned memory suffices for determinism and memory consistency.
//
// The paper's G_l rule fails a run on any foreign acquisition of a logged
// lock since BEGIN_i; here a section that stored nothing does not count
// (§6.2's dependence-aware direction, at lock granularity). It published
// nothing the run could have missed, and it committed before the run did, so
// it read nothing the run wrote: the run still serializes after it. Whether a
// section stored is the thread's store count across it (heldLock): one
// increment per store, and no store is intercepted.
func (e *Engine) validate(ts *tstate) bool {
	if !e.validateAtomics(ts) {
		return false
	}
	for _, r := range ts.log.locks {
		l := r.lock
		if e.pol.disjoint(l) {
			// Statically disjoint footprints: no section guarded by l
			// reads or writes data another section of l touches, so
			// commits interleaved since BEGIN cannot have invalidated
			// this run through l. The lock-level checks are coarser than
			// footprints and would still fire spuriously; skipping them
			// is what turns the static verdict into elided reverts.
			continue
		}
		if st := &e.tbl.Locks[l]; !e.pol.lockIntact(st, r.write, ts.baseAtBegin) {
			st.ConflictReverts++
			return false
		}
	}
	return true
}

// terminateRun ends the current speculation run: wait for the commit turn,
// validate (unless irrevocable — its conflicts were checked at upgrade and
// no other thread has committed since), then either commit the run or
// revert the thread. Returns true if the run committed.
func (e *Engine) terminateRun(t *dvm.Thread, ts *tstate) bool {
	if e.spec != nil {
		e.spec.Runs.Add(1)
	}
	e.waitCommitTurn(t)
	endValidate := phaseBegin("validate")
	valid := ts.irrevocable || e.validate(ts)
	endValidate()
	if valid {
		e.commitRunLocked(t, ts)
		e.arb.ReleaseTurn(t.ID, syncCost)
		return true
	}
	e.revertLocked(t, ts)
	e.arb.ReleaseTurn(t.ID, syncCost)
	return false
}

// commitRunLocked publishes a validated run: commit dirty pages, advance the
// commit sequence of every logged lock a section stored under, convert any
// still-held speculative locks into conventionally held ones (runs
// terminating at a condition-variable operation hold their critical-section
// lock), and record success in the adaptive histories. Caller holds the turn.
func (e *Engine) commitRunLocked(t *dvm.Thread, ts *tstate) {
	e.sync(t, ts)
	for _, h := range ts.held {
		// A lock still held turns conventional in its mode. An exclusive
		// one publishes what its section stored so far with this commit,
		// and keeps the store count from its acquisition: the conventional
		// release that ends the section publishes it again.
		if h.write && h.wrote(t) {
			ts.log.locks[h.rec].wrote = true
		}
		e.hold(t.ID, h)
	}
	my := e.arb.DLC(t.ID)
	seq := e.pipe.Seq()
	for _, r := range ts.log.locks {
		if r.wrote {
			e.tbl.Locks[r.lock].LastCommitSeq = seq
		}
	}
	e.commitAtomicsLocked(ts)
	e.pol.runEnded(&ts.pol, ts.log.locks, ts.runCS, true)
	if e.spec != nil {
		e.spec.Commits.Add(1)
		e.spec.CommittedCS.Add(int64(ts.runCS))
	}
	if e.tel != nil {
		e.tel.Span(t.ID, telemetry.SpanSpec, ts.begin, my, int64(ts.runCS))
	}
	if ts.irrevocable {
		e.irrevocableOwner = -1
		e.wake(t, waitIrrevocable, 0, true)
	}
	e.rec.Sync(t.ID, trace.OpSpecCommit, int64(ts.runCS), my)
	e.resetSpec(ts)
}

// revertLocked reverts a failed run: restore the thread snapshot and
// discard the run's private pages, reinstating the pre-run dirty set (the
// thread's writes from before the run must survive its failure). The DLC is
// deliberately left unchanged (§3.3). Caller holds the turn.
func (e *Engine) revertLocked(t *dvm.Thread, ts *tstate) {
	var start time.Time
	if e.spec != nil {
		//lazydet:nondeterministic the wall clock only measures the revert's cost for stats.Spec; the value never influences control flow
		start = time.Now()
	}
	discarded := ts.mem.RevertTo(ts.dirtySnap)
	t.Restore(ts.snap)
	if e.spec != nil {
		e.spec.Reverts.Add(1)
		e.spec.AddRevertSample(time.Since(start).Nanoseconds(), discarded) //lazydet:nondeterministic as above
	}
	if e.audit != nil {
		// The thread must be exactly its BEGIN snapshot again, and the
		// dirty set exactly the pre-run dirty set: snapshotting it afresh
		// must count the words the BEGIN snapshot did.
		e.audit.AtRevert(t, ts.snap, ts.mem.SnapshotDirtyInto(nil).Words(), ts.dirtySnap.Words())
		// The restored dirty set must be tracked as exactly as the one it
		// replaced.
		e.audit.AtWindow(t.ID, ts.mem)
	}
	e.pol.runEnded(&ts.pol, ts.log.locks, ts.runCS, false)
	if e.tel != nil {
		my := e.arb.DLC(t.ID)
		e.tel.Count("spec.reverted_words", int64(discarded))
		e.tel.Observe("spec.revert_words", int64(discarded))
		e.tel.Span(t.ID, telemetry.SpanSpec, ts.begin, my, int64(ts.runCS))
		e.tel.Span(t.ID, telemetry.SpanRevert, my, my, int64(discarded))
	}
	e.rec.Sync(t.ID, trace.OpSpecRevert, int64(ts.runCS), e.arb.DLC(t.ID))
	ts.noSpecNext = true
	// The log's wrote flags go with it: discarded writes never became
	// visible. Every hold was speculative: runs begin outside critical
	// sections.
	e.resetSpec(ts)
	ts.held = ts.held[:0]
}

// resetSpec clears per-run state: O(1), the log's buffers are retained.
func (e *Engine) resetSpec(ts *tstate) {
	ts.spec = false
	ts.irrevocable = false
	ts.snap = nil
	ts.dirtySnap = nil
	ts.log.reset()
	ts.runCS = 0
}

// enterIrrevocable handles a system call during speculation (§3.5).
// Outside a critical section the run simply terminates. Inside one, the run
// is upgraded to irrevocable: conflict detection happens now, and on
// success the thread blocks all other commits until the run terminates, so
// no conflict can arise for the now-irrevocable run. With the upgrade
// disabled (Figure 11's ablation) the run reverts instead and the syscall
// re-executes non-speculatively. Returns false if the thread was reverted.
func (e *Engine) enterIrrevocable(t *dvm.Thread, ts *tstate) bool {
	if len(ts.held) == 0 {
		return e.terminateRun(t, ts)
	}
	if e.cfg.Spec.NoIrrevocable {
		if e.spec != nil {
			e.spec.Runs.Add(1)
		}
		e.waitCommitTurn(t)
		e.revertLocked(t, ts)
		e.arb.ReleaseTurn(t.ID, syncCost)
		return false
	}
	e.waitCommitTurn(t)
	if e.validate(ts) {
		ts.irrevocable = true
		e.irrevocableOwner = t.ID
		if e.spec != nil {
			e.spec.Upgrades.Add(1)
		}
		e.arb.ReleaseTurn(t.ID, syncCost)
		return true
	}
	if e.spec != nil {
		e.spec.Runs.Add(1)
	}
	e.revertLocked(t, ts)
	e.arb.ReleaseTurn(t.ID, syncCost)
	return false
}
