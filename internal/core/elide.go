package core

import (
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
// Whether a release may defer is the policy's decision (policy.go's
// mayDefer), adaptive per lock and primed by the static footprint hints, and
// learnt from virtual outcomes that cost nothing.

// noLock is sync's lock argument at every point but Release.
const noLock = -1

// sync performs visibility point p on the thread's memory window — the
// memory half of every synchronization operation (paper §2: writes become
// visible "only as a result of synchronization operations"). What each point
// publishes, settles and re-bases is mempipe's business (DESIGN.md,
// "Visibility points"); whether a Release may defer, and what the outcome
// teaches, is the policy's (policy.go); this helper does the recording. l is
// the lock a Release publishes under (a validated run's first logged lock). A
// deferred publication records the same trace Commit event, at the same
// sequence and clock, that the commit would have recorded. Caller holds the
// turn.
func (e *Engine) sync(t *dvm.Thread, ts *tstate, p mempipe.Point, l int64) {
	if !e.strong() {
		return // flat memory: every store is already global
	}
	defer phaseBegin("commit")()
	mayDefer := e.pol.mayDefer(&ts.pol, p, l, ts.mem)
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
	e.pol.published(&ts.pol, p, l, mayDefer, out)
}
