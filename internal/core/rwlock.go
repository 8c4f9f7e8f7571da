package core

import (
	"fmt"

	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
	"lazydet/internal/trace"
)

// This file implements deterministic reader-writer locks, a library
// extension in the direction the paper's §6.2 sketches (conflict detection
// that understands data dependence): shared-mode critical sections read but
// do not write, so
//
//   - conventional readers admit each other at their turns (a reader count
//     per lock, mutated only at turns, keeps this deterministic);
//   - speculative runs log shared acquisitions as reads: two speculative
//     readers of the same lock never conflict, while writers conflict with
//     both readers and writers — the lock-granularity analogue of
//     dependence-aware transactional conflict detection.

// RLock implements dvm.Engine.
func (e *Engine) RLock(t *dvm.Thread, l int64) {
	ts := e.ts(t)
	if e.cfg.Speculation {
		e.lazyAcquire(t, ts, l, false)
		return
	}
	e.convRLock(t, ts, l)
}

// RUnlock implements dvm.Engine.
func (e *Engine) RUnlock(t *dvm.Thread, l int64) {
	ts := e.ts(t)
	if ts.spec {
		e.specRRelease(t, ts, l)
		return
	}
	e.convRUnlock(t, ts, l)
}

// convRLock takes a shared acquisition at the turn: admitted whenever no
// writer holds the lock. Reader counts change only at turns, so admission
// is deterministic.
func (e *Engine) convRLock(t *dvm.Thread, ts *tstate, l int64) {
	st := &e.tbl.Locks[l]
	backoff := quantum
	for {
		e.waitCommitTurn(t)
		e.sync(t, ts, mempipe.Acquire, noLock)
		my := e.arb.DLC(t.ID)
		if st.Owner == 0 && (e.arb.Nondet() || st.ReleaseDLC <= my) {
			e.pol.convAcquired(&ts.pol, ts.depth, l, false)
			st.Readers++
			st.Acquires++
			ts.depth++
			ts.heldConvRead = append(ts.heldConvRead, l)
			if e.spec != nil {
				e.spec.TotalAcquires.Add(1)
			}
			e.rec.Sync(t.ID, trace.OpRAcquire, l, my)
			e.arb.ReleaseTurn(t.ID, syncCost)
			return
		}
		e.arb.ReleaseTurn(t.ID, backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// convRUnlock releases a shared acquisition at the turn. Readers do not
// update the lock's commit sequence: a read-only critical section
// invalidates no speculation.
func (e *Engine) convRUnlock(t *dvm.Thread, ts *tstate, l int64) {
	e.waitCommitTurn(t)
	e.sync(t, ts, mempipe.Release, l)
	st := &e.tbl.Locks[l]
	if st.Readers <= 0 {
		panic(fmt.Sprintf("core: thread %d runlocks lock %d with no readers", t.ID, l))
	}
	st.Readers--
	ts.depth--
	dropLast(&ts.heldConvRead, l)
	e.rec.Sync(t.ID, trace.OpRRelease, l, e.arb.DLC(t.ID))
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// specRRelease records a speculative shared release.
func (e *Engine) specRRelease(t *dvm.Thread, ts *tstate, l int64) {
	dropLast(&ts.heldSpecRead, l)
	ts.depth--
	e.rec.Sync(t.ID, trace.OpRRelease, l, e.arb.DLC(t.ID))
	if ts.irrevocable && ts.depth == 0 {
		e.terminateRun(t, ts)
	}
}

// dropLast removes the most recent occurrence of l from s.
func dropLast(s *[]int64, l int64) {
	for i := len(*s) - 1; i >= 0; i-- {
		if (*s)[i] == l {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}
