package core

import (
	"lazydet/internal/detsync"
	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
	"lazydet/internal/telemetry"
)

// This file implements same-owner publication elision: the engine half of
// deferred publication (the heap half is internal/vheap/stage.go).
//
// On a critical-section release the eager protocol commits the thread's
// writes and re-bases its view — two page walks per release, even when the
// same thread immediately reacquires the lock and no other thread ever looks
// at the state in between. Under elision the release only *reserves* the
// commit sequence and stages the dirty words; consecutive same-owner
// sections merge into one accumulated stage, and the physical commit happens
// at the first point where another thread can actually observe the state: a
// foreign thread's own publication point (which flushes outstanding stages),
// or one of this thread's cross-thread visibility points — barrier, condition
// variable, join, spawn, atomic, irrevocable upgrade, thread exit — where the
// window settles (mempipe.Point; DESIGN.md's "Visibility points" table).
//
// The trace is publication-for-publication identical to never deferring: a
// staged release reserves exactly the sequence an eager commit would have
// used and records the same trace Commit event, so schedules, TraceSig and
// HeapHash do not depend on which releases elide (mempipe's
// TestVisibilityPoints states this per point; the harness pins it across
// commits in testdata/fingerprints.json). Soundness argument: DESIGN.md's
// elision section.
//
// The elide/force decision is adaptive per lock (ElideHist, shared across
// threads: a miss means the lock's state was demanded cross-thread, which
// predicts misses for every owner), primed by the PR 9 static footprint
// hints: Disjoint locks always elide.
//
// Everything else is earned through VIRTUAL PROBES, which cost nothing. A
// stage survives exactly until any other publication advances the heap
// sequence (every publication, performed or deferred, flushes all foreign
// stages first),
// so whether a deferred publication *would have* survived from one release
// to the owner's next is observable without deferring anything: publish
// eagerly, snapshot the heap sequence, and compare at the next publication
// point. Histories therefore accumulate at full release rate while the
// machinery — stage deep copies, retained frames, re-base rebuilds — stays
// completely off; real staging engages only once the recent history predicts
// survival, and an engaged chain keeps itself alive on its own evidence.
// Workloads whose stages could never survive (dynamically addressed lock
// sets under dense cross-thread commit traffic, speculation phases whose run
// commits flush everything) pay literally zero elision overhead.

// shouldElide decides at a release turn whether lock l's publication may be
// deferred: only when the static hint or the recent survival history —
// per-lock, or workload-wide for locks too cold to predict anything —
// says a stage would survive to this thread's next release. There is no
// probing arm: virtual probes (sync) feed the histories for free on every
// eager release, so a false here costs nothing and a true is backed by
// evidence. All state read and written here mutates only at turns, so the
// decision — and with it the gated commit.elided counter — is a
// deterministic function of the schedule.
func (e *Engine) shouldElide(ts *tstate, l int64) bool {
	// The retained dirty set — and with it the per-release stage merge and
	// the speculation-snapshot cost — grows with the elision chain, so past
	// the limit the release publishes eagerly and resets the accumulation.
	if ts.elideChain >= maxElideChain {
		return false
	}
	// A statically Disjoint lock always elides: no other section guarded by
	// it touches the data this section wrote, so deferring the publication
	// cannot cost a peer anything (DESIGN.md §5e).
	if e.hint(l) == HintDisjoint {
		return true
	}
	if detsync.RecentRatePermille(e.tbl.Locks[l].ElideHist, elideRecentWindow) >= elideEngagePermille {
		return true
	}
	return detsync.RecentRatePermille(e.elideGlobal, elideRecentWindow) >= elideEngagePermille
}

// maxElideChain bounds how many consecutive publications one thread may
// defer before the next release publishes eagerly. The retained dirty set (and
// with it the stage-merge and speculation-snapshot cost) grows with the chain,
// so an unbounded chain would turn elision's per-release win into quadratic
// accumulated work on lock-hot loops. The limit only changes which releases
// elide — a deterministic function of the schedule either way.
const maxElideChain = 64

// elideRecentWindow is how many of the newest survival outcomes the
// engagement decision looks at. Over the full 64-bit history a zero-seeded
// lock would need dozens of consecutive hits before engaging — longer than
// most reacquire phases last. A 16-outcome window engages after 8 hits,
// early enough to capture most of a phase, and disengages within a handful
// of misses once a phase ends.
const elideRecentWindow = 16

// elideEngagePermille is the recent survival rate above which real staging
// engages. Deliberately far below Spec.ThresholdPermille: a speculation miss
// costs a full revert, so speculation demands 850‰, but an elision miss
// wastes only a delta copy plus some retained-frame bookkeeping while a hit
// saves an entire physical commit and refresh — break-even sits well under
// one hit in two. 500‰ also keeps phase-structured workloads engaged:
// a thread whose bursts span k publications scores k-1 hits and one
// boundary miss per burst, a rate of (k-1)/k, which a demanding threshold
// would reject for every k < 8 even though eliding there saves most of the
// commits.
const elideEngagePermille = 500

// A pending deferred publication (real or virtual) resolves at the thread's
// next visibility point, and pays exactly when it survives to the owner's
// next Release: the sections merge there into one physical commit. Surviving
// only to an Acquire (a lock acquisition between the two sections of a
// would-be chain) proves nothing yet, and surviving to a settling point
// (Signal, Park, Upgrade) proves the deferral bought nothing — the stage
// flushes as its own commit, exactly what eager publication would have done.

// resolveElide folds the outcome of the thread's pending elided publication
// into its lock's shared history and reports whether the stage is still
// outstanding. A flushed stage is always a miss: the state was either
// demanded cross-thread or committed by the owner's own eager publication
// before any chain formed. An unflushed stage is a hit only at a Release
// (the merge that saves a physical commit is happening right now); at a
// settling point it is a miss (no commit was saved), and at an Acquire it
// stays pending — this section's release may yet extend the chain. Caller
// holds the turn and has not yet performed point p.
func (e *Engine) resolveElide(ts *tstate, p mempipe.Point) (survived bool) {
	if !ts.elidePending {
		return false
	}
	flushed, dropped := ts.mem.Deferred()
	if p == mempipe.Acquire && !flushed {
		return true
	}
	ts.elidePending = false
	hit := !flushed && p == mempipe.Release
	st := &e.tbl.Locks[ts.elideLock]
	st.ElideHist = detsync.PushOutcome(st.ElideHist, hit)
	e.elideGlobal = detsync.PushOutcome(e.elideGlobal, hit)
	if dropped {
		ts.elideChain = 0
	}
	return !flushed
}

// resolveVirtual folds the outcome of the thread's pending virtual probe
// (started at an eager release) into the histories: a hit when the heap
// sequence has not moved since — no publication by anyone, so a real stage
// would have survived intact to merge at this Release — and a miss when the
// sequence advanced (any foreign commit or staging would have flushed it;
// the thread's own intermediate publication would have settled it) or when
// the probe reaches a settling point, where even a surviving stage buys
// nothing. An Acquire leaves the probe pending: the thread's own publish
// there advances the sequence, turning the eventual outcome into a miss by
// itself. Caller holds the turn.
func (e *Engine) resolveVirtual(ts *tstate, p mempipe.Point) {
	if !ts.virtPending || p == mempipe.Acquire {
		return
	}
	ts.virtPending = false
	hit := p == mempipe.Release && e.pipe.Seq() == ts.virtSeq
	st := &e.tbl.Locks[ts.virtLock]
	st.ElideHist = detsync.PushOutcome(st.ElideHist, hit)
	e.elideGlobal = detsync.PushOutcome(e.elideGlobal, hit)
}

// noLock is sync's lock argument at every point but Release.
const noLock = -1

// sync performs visibility point p on the thread's memory window — the
// memory half of every synchronization operation (paper §2: writes become
// visible "only as a result of synchronization operations"). What each point
// publishes, settles and re-bases is mempipe's business (DESIGN.md,
// "Visibility points"); this helper owns the elision policy and the
// recording. The thread's pending outcomes — real stage or virtual probe —
// resolve first, so the histories a Release decision reads are current
// through this very release; l is the lock a Release publishes under (a
// validated run's first logged lock). An unflushed pending stage extends its
// chain directly (the merge happening right now is the payoff the histories
// only predict); an eager release starts a cost-free virtual probe in its
// place. A deferred publication records the same trace Commit event, at the
// same sequence and clock, that the commit would have recorded. Caller holds
// the turn.
func (e *Engine) sync(t *dvm.Thread, ts *tstate, p mempipe.Point, l int64) {
	if !e.strong() {
		return // flat memory: every store is already global
	}
	defer phaseBegin("commit")()
	survived := e.resolveElide(ts, p)
	e.resolveVirtual(ts, p)
	release := p == mempipe.Release
	mayDefer := release &&
		(survived && ts.elideChain < maxElideChain || e.shouldElide(ts, l))
	if e.audit != nil {
		e.audit.AtWindow(t.ID, ts.mem)
	}
	out := ts.mem.Sync(p, mayDefer)
	if out.Committed || out.Staged {
		my := e.arb.DLC(t.ID)
		e.rec.Commit(t.ID, my, out.Seq)
		if e.tel != nil {
			if out.Staged {
				e.elided.Add(1)
			}
			e.tel.Span(t.ID, telemetry.SpanCommit, my, my, out.Seq)
		}
		if e.audit != nil {
			e.audit.AtCommit(t.ID, out.Seq)
			if out.Staged {
				e.audit.AtWindow(t.ID, ts.mem)
			}
		}
	}
	switch {
	case out.Staged:
		ts.elidePending, ts.elideLock = true, l
		ts.elideChain++
	case out.Committed, p == mempipe.Signal, p == mempipe.Park:
		ts.elideChain = 0
	}
	if release && !mayDefer {
		ts.virtPending, ts.virtLock, ts.virtSeq = true, l, e.pipe.Seq()
	}
}
