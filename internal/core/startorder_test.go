package core

import (
	"testing"

	"lazydet/internal/dvm"
)

// gatedStart delays one thread's ThreadStart until a gate opens, putting the
// host scheduler's choice of which goroutine runs first under test control.
type gatedStart struct {
	*Engine
	held    int           // thread whose start waits for the gate
	gate    chan struct{} // closed to release it
	started func(tid int) // called after each thread's ThreadStart
}

func (g gatedStart) ThreadStart(t *dvm.Thread) {
	if t.ID == g.held {
		<-g.gate
	}
	g.Engine.ThreadStart(t)
	g.started(t.ID)
}

// TestInitialViewBaseIgnoresStartOrder pins the start-order determinism fix:
// a thread's first speculation run validates against the heap sequence its
// view was based on at BEGIN, so that base must not depend on whether the
// thread's goroutine first ran before or after a peer's DLC-0 commit. Thread
// 0 commits an eager atomic at DLC 0; thread 1 speculates on the same
// location. Whichever goroutine the host starts first, the schedule — here
// the revert of thread 1's run and the trace signature — must be the same.
func TestInitialViewBaseIgnoresStartOrder(t *testing.T) {
	const cell = 8
	run := func(held int) (reverts int64, sig uint64) {
		r := newRig(t, lazyCfg(), 2, 64, 1, 0, 0)
		gate := make(chan struct{})

		p0 := dvm.NewBuilder("committer")
		v0 := p0.Reg()
		p0.AtomicAdd(v0, dvm.Const(cell), dvm.Const(1)) // eager: first op, no run to join
		if held == 1 {
			p0.Do(func(*dvm.Thread) { close(gate) }) // thread 1 starts only after this commit
		}

		p1 := dvm.NewBuilder("speculator")
		v1 := p1.Reg()
		p1.Lock(dvm.Const(0))
		p1.AtomicAdd(v1, dvm.Const(cell), dvm.Const(10))
		p1.Unlock(dvm.Const(0))

		eng := gatedStart{Engine: r.eng, held: held, gate: gate, started: func(tid int) {
			if held == 0 && tid == 1 {
				close(gate) // thread 0 starts only after thread 1 has its view
			}
		}}
		dvm.Run(eng, []*dvm.Program{p0.Build(), p1.Build()})
		if got := r.read(cell); got != 11 {
			t.Fatalf("cell = %d, want 11", got)
		}
		return r.spec.Reverts.Load(), r.rec.Signature()
	}
	lateReverts, lateSig := run(1)   // thread 1's goroutine first runs after thread 0 committed
	earlyReverts, earlySig := run(0) // thread 1's goroutine runs first
	if lateReverts != earlyReverts || lateSig != earlySig {
		t.Fatalf("schedule depends on goroutine start order: reverts %d vs %d, trace %x vs %x",
			lateReverts, earlyReverts, lateSig, earlySig)
	}
	if lateReverts != 1 {
		t.Fatalf("%d reverts, want 1: thread 1's run began before the DLC-0 commit in logical time", lateReverts)
	}
}
