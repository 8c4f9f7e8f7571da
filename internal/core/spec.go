package core

import (
	"time"

	"lazydet/internal/detsync"
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
		want := e.shouldSpeculate(ts, t.ID, l)
		if want && ts.runCS < e.runLimit(ts) {
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
	} else if ts.depth == 0 && !ts.noSpecNext && e.shouldSpeculate(ts, t.ID, l) {
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

// maxEarnedRunCS is the coarsening ceiling: the width of the run history that
// earns it.
const maxEarnedRunCS = 64

// runLimit is how many critical sections the thread's current run may span
// (§3.4's coarsening). Spec.MaxRunCS is the floor every thread starts at; a
// thread whose last 64 runs all committed has earned the ceiling, and one
// revert puts it back at the floor for its next 64 runs. Only the thread's own
// history is read, so the limit is deterministic (DESIGN.md §4).
func (e *Engine) runLimit(ts *tstate) int {
	if ts.runHist == ^uint64(0) && e.cfg.Spec.Coarsening {
		return max(e.cfg.Spec.MaxRunCS, maxEarnedRunCS)
	}
	return e.cfg.Spec.MaxRunCS
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

// shouldSpeculate makes the adaptive speculation decision (§3.4) from the
// 64-bit success history: speculate while the success rate is at the
// threshold. Below it the history fills from virtual probes (virtualProbe),
// not from the paper's real probe every 20th attempt (DESIGN.md §4d has why).
// A thread reads only its own histories, so the decision is deterministic.
func (e *Engine) shouldSpeculate(ts *tstate, tid int, l int64) bool {
	// A statically Disjoint lock always speculates: its critical sections
	// have provably non-overlapping footprints, so speculation on it can
	// never fail validation (DESIGN.md §5e) and warm-up or probing would
	// only forfeit elision wins. The noSpecNext progress guarantee is
	// enforced by the callers before they consult this decision, so the
	// prior cannot starve a reverted thread.
	if e.hint(l) == HintDisjoint {
		return true
	}
	h, thr := *e.specHist(ts, tid, l), e.cfg.Spec.ThresholdPermille
	return detsync.SuccessRatePermille(h) >= thr
}

// specHist is thread tid's history for lock l — the thread's one history
// when per-lock statistics are off (Figure 11's LAZYDET-NoPerLockStats).
func (e *Engine) specHist(ts *tstate, tid int, l int64) *uint64 {
	if e.cfg.Spec.PerLockStats {
		return &e.tbl.Locks[l].SpecHist[tid]
	}
	return &ts.threadHist
}

// virtualProbe is the policy's evidence source below the threshold, and costs
// nothing: a conventional acquisition takes the turn anyway, and whether a run
// begun at it would have validated is the question validate asks of a lock
// (lockIntact), put to the BEGIN and heap base the acquisition itself defines.
// Called by the conventional acquire arms with the turn held, l free and not
// yet taken, my the thread's clock. Like a real run, a virtual one is begun by
// its first lock's history and stays open for up to MaxRunCS outermost
// acquisitions (the floor: a probe prices the runs a stood-down thread would
// begin with, not the ones it could earn), which are inside it and begin
// nothing; it resolves into its lock's history at the last of them, or sooner
// if the thread comes back to the lock. Then l arms one, unless its history
// says speculate: a conventional acquisition there is the post-revert progress
// guarantee and proves nothing.
func (e *Engine) virtualProbe(ts *tstate, tid int, l int64, write bool, my int64) {
	if !e.cfg.Speculation || ts.depth > 0 {
		return
	}
	if p := &ts.probe; p.left > 0 {
		if p.left--; p.left > 0 && p.lock != l {
			return
		}
		h := e.specHist(ts, tid, p.lock)
		*h = detsync.PushOutcome(*h, e.lockIntact(&e.tbl.Locks[p.lock], p.write, p.begin, p.base))
	}
	if !e.shouldSpeculate(ts, tid, l) {
		ts.probe = specProbe{write: write, lock: l, begin: my, base: e.tbl.Locks[l].LastCommitSeq, left: e.cfg.Spec.MaxRunCS}
	}
}

// recordOutcome shifts the run's outcome into the thread's run history and
// into the history of every lock it touched (or the thread history when
// per-lock statistics are disabled).
func (e *Engine) recordOutcome(ts *tstate, tid int, success bool) {
	ts.runHist = detsync.PushOutcome(ts.runHist, success)
	if e.spec != nil && ts.runCS > e.cfg.Spec.MaxRunCS {
		e.spec.ExtendedRuns.Add(1)
	}
	if !e.cfg.Spec.PerLockStats {
		ts.threadHist = detsync.PushOutcome(ts.threadHist, success)
		return
	}
	for _, r := range ts.log.locks {
		h := &e.tbl.Locks[r.lock].SpecHist[tid]
		*h = detsync.PushOutcome(*h, success)
	}
}

// lockIntact is conflict detection for one lock (§3.2), shared by validate
// and the virtual probes so the two cannot drift: a run that logged st
// (exclusively if write) at clock begin on heap base base is still valid iff
// st is not held against it and nobody acquired or committed it since.
func (e *Engine) lockIntact(st *detsync.Lock, write bool, begin, base int64) bool {
	if st.Owner != 0 || write && st.Readers != 0 {
		return false // held exclusively, or our write meets live readers
	}
	if !e.cfg.Spec.WriteAware && st.LastAcquireDLC > begin {
		return false
	}
	return st.LastCommitSeq <= base
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
		if e.hint(l) == HintDisjoint {
			// Statically disjoint footprints: no section guarded by l
			// reads or writes data another section of l touches, so
			// commits interleaved since BEGIN cannot have invalidated
			// this run through l. The lock-level checks below are coarser
			// than footprints and would still fire spuriously; skipping
			// them is what turns the static verdict into elided reverts.
			// Soundness argument: DESIGN.md §5e.
			continue
		}
		if st := &e.tbl.Locks[l]; !e.lockIntact(st, r.write, ts.begin, ts.baseAtBegin) {
			st.ConflictReverts++
			return false
		}
	}
	return true
}

// hint returns the static speculation prior for lock l; HintNone when no
// hint table was configured or l is out of its range.
func (e *Engine) hint(l int64) SpecHint {
	if l >= 0 && l < int64(len(e.cfg.Hints)) {
		return e.cfg.Hints[l]
	}
	return HintNone
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
	e.recordOutcome(ts, t.ID, true)
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
	e.recordOutcome(ts, t.ID, false)
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
