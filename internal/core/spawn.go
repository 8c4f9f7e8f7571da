package core

import (
	"runtime"

	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/trace"
)

// This file implements deterministic thread creation and joining — the
// pthread_create / pthread_join surface every PARSEC/SPLASH-2 program uses
// around its parallel phase.
//
//   - A suspended thread is registered as parked, so it does not hold the
//     global clock minimum at zero.
//   - Spawn happens at the spawner's turn: the spawner publishes its memory
//     (create has release semantics), the child's clock is derived from the
//     spawner's, and the child is released. All deterministic.
//   - A join whose target has not exited parks the joiner at its turn. The
//     target's final commit turn wakes it one DLC later (ThreadExit), and
//     the exit becomes visible exactly at that turn (the arbiter
//     transitions Turn→Exited in place), so the joiner's clock is
//     deterministic. The join then refreshes the joiner's view (join has
//     acquire semantics).

// ThreadResume refreshes a freshly spawned thread's memory view to exactly
// the state its spawner published: the acquire half of pthread_create's
// happens-before edge, pinned to the spawn turn's sequence so the resume is
// deterministic.
func (e *Engine) ThreadResume(t *dvm.Thread) {
	e.ts(t).mem.RefreshTo(e.tbl.SpawnSeq[t.ID])
}

// Spawn implements dvm.Engine.
func (e *Engine) Spawn(t *dvm.Thread, target int) {
	ts := e.ts(t)
	if ts.spec {
		// Creating a thread is inter-thread communication: terminate
		// the run (commit if possible, revert otherwise).
		if !e.terminateRun(t, ts) {
			return // reverted; the spawn re-executes after restart
		}
	}
	e.waitCommitTurn(t)
	// Release semantics: the child re-bases on exactly this state.
	e.sync(t, ts)
	e.tbl.SpawnSeq[target] = e.pipe.Seq()
	my := e.arb.DLC(t.ID)
	<-e.started[target]
	e.arb.Unpark(target, my+1)
	t.Group().StartThread(target)
	e.rec.Sync(t.ID, trace.OpSpawn, int64(target), my)
	e.arb.ReleaseTurn(t.ID, syncCost)
}

// Join implements dvm.Engine.
func (e *Engine) Join(t *dvm.Thread, target int) {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return
		}
	}
	for {
		e.waitCommitTurn(t)
		if e.arb.Status(target) == dlc.StatusExited {
			// Acquire semantics: the target's final commit is already
			// published; refresh our window to include it.
			e.sync(t, ts)
			e.rec.Sync(t.ID, trace.OpJoin, int64(target), e.arb.DLC(t.ID))
			e.arb.ReleaseTurn(t.ID, syncCost)
			return
		}
		if e.arb.Nondet() {
			// The target exits without a turn in nondeterministic mode,
			// so nothing wakes a parked joiner; yield and retry.
			e.arb.ReleaseTurn(t.ID, 0)
			runtime.Gosched()
			continue
		}
		e.park(t, waiter{kind: waitJoin, on: int64(target)})
	}
}
