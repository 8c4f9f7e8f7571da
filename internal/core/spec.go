package core

import (
	"time"

	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
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
		if ts.depth > 0 {
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
	} else if ts.depth == 0 && !ts.noSpecNext && e.pol.speculate(&ts.pol, l) {
		e.beginRun(t, ts)
		e.specAcquire(t, ts, l, write)
		return
	}
	// Progress guarantee: after a revert the next critical section runs
	// without speculation (§3.2).
	ts.noSpecNext = false
	if write {
		e.convLock(t, ts, l)
	} else {
		e.convRLock(t, ts, l)
	}
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
	i := ts.log.acquire(l, write)
	op := trace.OpRAcquire
	if write {
		ts.heldSpec = append(ts.heldSpec, int32(i))
		op = trace.OpAcquire
	} else {
		ts.heldSpecRead = append(ts.heldSpecRead, l)
	}
	ts.depth++
	if ts.depth == 1 {
		ts.runCS++
	}
	if e.spec != nil {
		e.spec.TotalAcquires.Add(1)
		e.spec.SpecAcquires.Add(1)
	}
	e.rec.Sync(t.ID, op, l, e.arb.DLC(t.ID))
}

// specRelease records a speculative exclusive release. An irrevocable run
// terminates at the first point where no locks are held (§3.5).
func (e *Engine) specRelease(t *dvm.Thread, ts *tstate, l int64) {
	ts.dropHeldSpec(l)
	ts.depth--
	e.rec.Sync(t.ID, trace.OpRelease, l, e.arb.DLC(t.ID))
	if ts.irrevocable && ts.depth == 0 {
		e.terminateRun(t, ts) // commits: irrevocable runs never revert
	}
}

// validate is conflict detection (§3.2): the run fails if any lock it
// recorded was acquired by another thread since the run began, or is
// currently held non-speculatively. Detection is purely on locks — never on
// data addresses — since lock-level detection plus versioned memory
// suffices for determinism and memory consistency.
//
// "Acquired since the run began" is decided with two deterministic tests:
// the paper's G_l comparison against BEGIN_i, and a commit-sequence
// comparison against the run's heap base, which is what guarantees the
// run's reads included every committed critical section of each logged
// lock in this runtime.
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
		if st := &e.tbl.Locks[l]; !e.pol.lockIntact(st, r.write, ts.begin, ts.baseAtBegin) {
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

// commitRunLocked publishes a validated run: commit dirty pages, update the
// G_l map and commit sequences for every logged lock, convert any still-held
// speculative locks into conventionally held ones (runs terminating at a
// condition-variable operation hold their critical-section lock), and
// record success in the adaptive histories. Caller holds the turn.
func (e *Engine) commitRunLocked(t *dvm.Thread, ts *tstate) {
	// A validated run's publication is a release like any other and elides
	// under the same per-lock policy, attributed to the run's first logged
	// lock (the lock that began the run). An irrevocable run publishes
	// eagerly: its deferred state was already settled at the upgrade.
	if !ts.irrevocable && len(ts.log.locks) > 0 {
		e.sync(t, ts, mempipe.Release, ts.log.locks[0].lock)
	} else {
		e.sync(t, ts, mempipe.Acquire, noLock)
	}
	my := e.arb.DLC(t.ID)
	seq := e.pipe.Seq()
	for _, r := range ts.log.locks {
		st := &e.tbl.Locks[r.lock]
		if r.write {
			st.LastAcquireDLC = my
			if r.wrote || !e.cfg.Spec.WriteAware {
				st.LastCommitSeq = seq
			}
		}
		st.Acquires += int64(r.count)
	}
	e.commitAtomicsLocked(ts)
	for _, i := range ts.heldSpec {
		// A still-held lock keeps its wrote flag: the conventional release
		// that ends the section publishes it again.
		r := ts.log.locks[i]
		e.tbl.Locks[r.lock].Owner = int32(t.ID) + 1
		ts.heldConv = append(ts.heldConv, heldLock{lock: r.lock, wrote: r.wrote})
	}
	for _, l := range ts.heldSpecRead {
		e.tbl.Locks[l].Readers++
		ts.heldConvRead = append(ts.heldConvRead, l)
	}
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
		// The pre-run dirty set includes any deferred (staged, un-published)
		// state; the restore must have preserved it word for word.
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
	// The log's wrote flags go with it: discarded writes never became visible.
	e.resetSpec(ts)
	ts.depth = len(ts.heldConv) + len(ts.heldConvRead) // always 0: runs begin outside critical sections
}

// dropHeldSpec removes the most recent speculative exclusive hold of l.
func (ts *tstate) dropHeldSpec(l int64) {
	for i := len(ts.heldSpec) - 1; i >= 0; i-- {
		if ts.log.locks[ts.heldSpec[i]].lock == l {
			ts.heldSpec = append(ts.heldSpec[:i], ts.heldSpec[i+1:]...)
			return
		}
	}
}

// resetSpec clears per-run state: O(1), the log's buffers are retained.
func (e *Engine) resetSpec(ts *tstate) {
	ts.spec = false
	ts.irrevocable = false
	ts.snap = nil
	ts.dirtySnap = nil
	ts.log.reset()
	ts.heldSpec = ts.heldSpec[:0]
	ts.heldSpecRead = ts.heldSpecRead[:0]
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
	if ts.depth == 0 {
		return e.terminateRun(t, ts)
	}
	if !e.cfg.Spec.Irrevocable {
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
		// Settle deferred publications at the upgrade turn: the irrevocable
		// phase reads committed state off-turn (ReadCommitted), and settling
		// now keeps those reads' flushes deterministic no-ops.
		e.sync(t, ts, mempipe.Upgrade, noLock)
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
