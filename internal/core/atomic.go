package core

import (
	"lazydet/internal/dvm"
	"lazydet/internal/trace"
)

// This file implements deterministic atomic read-modify-write operations —
// the extension the paper's §7 names as the natural next step for LazyDet:
// atomic instructions were incompatible with prior DMT systems (Table 3),
// and determinism-by-total-order would squander the speed developers chose
// atomics for. Two treatments are provided:
//
//   - Eager (all deterministic engines, and LazyDet outside speculation): the
//     atomic is a synchronization operation — wait for the turn, publish,
//     apply, publish again. Totally ordered, hence deterministic.
//   - Speculative (LazyDet inside a revocable run): the atomic applies to the
//     thread's isolated view with no coordination, and the accessed location
//     is recorded in the run's atomic log. Conflict detection extends to
//     those locations exactly as it covers locks: the run fails if any
//     logged location was atomically updated by a committed run or eager
//     atomic since the run began — "detecting conflicts only on locations
//     accessed by the atomics" (§7).
//
// Atomic locations are assumed not to be concurrently updated by plain
// stores (the usual discipline for atomics); plain reads of them are safe.
// A plain read under a lock is covered by the lock rule: the VM counts every
// atomic as a store (dvm.Thread.Atomic), so a section that ran one advances
// its lock's commit sequence like a section that stored.

// Atomic implements dvm.Engine.
func (e *Engine) Atomic(t *dvm.Thread, a *dvm.Atomic) int64 {
	ts := e.ts(t)
	if e.cfg.Speculation && ts.spec && !ts.irrevocable {
		return e.specAtomic(t, ts, a)
	}
	if ts.irrevocable {
		return e.irrevocableAtomic(t, ts, a)
	}
	return e.eagerAtomic(t, ts, a)
}

// irrevocableAtomic applies a read-modify-write inside an irrevocable run.
// Locations already in the atomic log were validated fresh at the upgrade
// (and may carry this run's own updates), so they read through the view;
// a location touched for the first time reads the newest committed value,
// which is stable because no other thread can commit while the run is
// irrevocable — both cases are deterministic.
func (e *Engine) irrevocableAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	addr := a.Addr(t)
	if ts.log.hasAtomic(addr) {
		cur := ts.mem.Load(addr)
		store, result := a.Apply(t, cur)
		ts.mem.Store(addr, store)
		e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
		return result
	}
	cur := e.pipe.ReadCommitted(addr)
	store, result := a.Apply(t, cur)
	// The value was computed against state newer than the view's base, so
	// the store must win the commit merge even if it looks silent.
	ts.mem.StoreDirty(addr, store)
	ts.log.touchAtomic(addr)
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	return result
}

// eagerAtomic totally orders the read-modify-write at the turn. The same
// sequence serves both memory pipelines: on flat memory the publish and
// refresh halves are no-ops, leaving exactly the load/apply/store the weak
// engines need.
func (e *Engine) eagerAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	e.waitCommitTurn(t)
	addr := a.Addr(t)
	// The read half needs fresh state; the store below makes the window
	// unpublished again, so the second half always commits — the atomic's
	// update is immediately cross-thread visible.
	e.sync(t, ts)
	cur := ts.mem.Load(addr)
	store, result := a.Apply(t, cur)
	ts.mem.Store(addr, store)
	e.sync(t, ts)
	if e.strong() {
		e.tbl.Atomics[addr] = e.pipe.Seq()
	}
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	e.arb.ReleaseTurn(t.ID, syncCost)
	return result
}

// specAtomic applies the read-modify-write to the isolated view and logs
// the location for commit-time conflict detection.
func (e *Engine) specAtomic(t *dvm.Thread, ts *tstate, a *dvm.Atomic) int64 {
	addr := a.Addr(t)
	cur := ts.mem.Load(addr)
	store, result := a.Apply(t, cur)
	ts.mem.Store(addr, store)
	ts.log.touchAtomic(addr)
	e.rec.Sync(t.ID, trace.OpAtomic, addr, e.arb.DLC(t.ID))
	return result
}

// validateAtomics checks the atomic log against the location table: a
// conflict exists if any logged location was atomically updated by a commit
// the run's heap base does not include.
func (e *Engine) validateAtomics(ts *tstate) bool {
	for _, addr := range ts.log.atoms {
		if e.tbl.Atomics[addr] > ts.baseAtBegin {
			return false
		}
	}
	return true
}

// commitAtomicsLocked publishes the run's atomic updates into the location
// table. Caller holds the turn and has committed the heap.
func (e *Engine) commitAtomicsLocked(ts *tstate) {
	if len(ts.log.atoms) == 0 {
		return
	}
	seq := e.pipe.Seq()
	for _, addr := range ts.log.atoms {
		e.tbl.Atomics[addr] = seq
	}
}
