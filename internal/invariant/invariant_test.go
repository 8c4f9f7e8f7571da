package invariant_test

import (
	"errors"
	"strings"
	"testing"

	"lazydet/internal/core"
	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/invariant"
	"lazydet/internal/vheap"
)

// rig is a single engine wired for auditing, with violations captured
// instead of panicking.
type rig struct {
	eng        *core.Engine
	arb        *dlc.Arbiter
	tbl        *detsync.Table
	heap       *vheap.Heap
	violations []*invariant.Violation
}

func newAuditRig(threads, locks int, speculation bool) *rig {
	r := &rig{
		arb:  dlc.New(threads),
		tbl:  detsync.NewTable(threads, locks, 1, 1, speculation),
		heap: vheap.New(256),
	}
	r.eng = core.New(
		core.Config{Mode: core.ModeStrong, Speculation: speculation, CheckInvariants: true},
		core.Deps{
			Arb:  r.arb,
			Tbl:  r.tbl,
			Heap: r.heap,
			// Violations are reported by the turn holder; consecutive
			// turn holders synchronize through the arbiter, so the
			// append is safe without extra locking.
			OnViolation: func(v *invariant.Violation) { r.violations = append(r.violations, v) },
		})
	return r
}

// TestMutationSkewedCommitSeq: deliberately moving a lock's commit sequence
// (LastCommitSeq) backwards between two turns must be caught at the very next
// turn grant as a structured lock-commitseq-monotone violation naming the
// lock — not as a distant trace-hash mismatch. The program is
// single-threaded, so the skew mutation is not a data race.
func TestMutationSkewedCommitSeq(t *testing.T) {
	r := newAuditRig(1, 2, false)
	b := dvm.NewBuilder("skew-commitseq")
	v := b.Reg()
	b.Lock(dvm.Const(0))
	b.Load(v, dvm.Const(0))
	b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
	b.Unlock(dvm.Const(0))
	b.Lock(dvm.Const(1)) // a turn whose audit records the advanced sequence
	b.Unlock(dvm.Const(1))
	b.Do(func(*dvm.Thread) { r.tbl.Locks[0].LastCommitSeq-- })
	b.Lock(dvm.Const(0)) // the violating turn: audit fires here
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if len(r.violations) == 0 {
		t.Fatal("skewed commit sequence produced no invariant violation")
	}
	got := r.violations[0]
	if got.Rule != "lock-commitseq-monotone" {
		t.Fatalf("violation rule = %q, want lock-commitseq-monotone (%v)", got.Rule, got)
	}
	if got.Lock != 0 {
		t.Fatalf("violation names lock %d, want 0 (%v)", got.Lock, got)
	}
	if got.Thread != 0 {
		t.Fatalf("violation names thread %d, want 0 (%v)", got.Thread, got)
	}
	if got.Status != dlc.StatusTurn {
		t.Fatalf("violation observed with status %v, want turn — the breach must be caught at the violating turn (%v)", got.Status, got)
	}
	if !strings.Contains(got.Detail, "moved backwards") {
		t.Fatalf("violation detail %q does not describe the backwards move", got.Detail)
	}
	if !strings.Contains(got.Error(), "lock 0") {
		t.Fatalf("violation error %q does not name the lock", got.Error())
	}
}

// TestMutationOwnerAndReaders: a lock recorded as simultaneously owned
// exclusively and held by readers is caught at the next turn grant.
func TestMutationOwnerAndReaders(t *testing.T) {
	r := newAuditRig(1, 2, false)
	b := dvm.NewBuilder("owner-readers")
	b.Do(func(*dvm.Thread) {
		r.tbl.Locks[0].Owner = 1
		r.tbl.Locks[0].Readers = 2
	})
	b.Lock(dvm.Const(1))
	b.Unlock(dvm.Const(1))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if len(r.violations) == 0 {
		t.Fatal("corrupt owner/readers state produced no invariant violation")
	}
	got := r.violations[0]
	if got.Rule != "lock-owner-readers" || got.Lock != 0 {
		t.Fatalf("first violation = %v, want lock-owner-readers on lock 0", got)
	}
}

// TestMutationCommitSeqAheadOfHeap: a lock whose LastCommitSeq claims a
// commit the heap has never performed is caught.
func TestMutationCommitSeqAheadOfHeap(t *testing.T) {
	r := newAuditRig(1, 2, false)
	b := dvm.NewBuilder("commitseq-future")
	b.Do(func(*dvm.Thread) { r.tbl.Locks[1].LastCommitSeq = 999 })
	b.Lock(dvm.Const(0))
	b.Unlock(dvm.Const(0))
	dvm.Run(r.eng, []*dvm.Program{b.Build()})

	if len(r.violations) == 0 {
		t.Fatal("future LastCommitSeq produced no invariant violation")
	}
	if got := r.violations[0]; got.Rule != "lock-commitseq-future" || got.Lock != 1 {
		t.Fatalf("first violation = %v, want lock-commitseq-future on lock 1", got)
	}
}

// TestCheckerCommitMonotonicity: the checker rejects a commit sequence that
// fails to advance.
func TestCheckerCommitMonotonicity(t *testing.T) {
	arb := dlc.New(1)
	tbl := detsync.NewTable(1, 1, 0, 0, false)
	heap := vheap.New(64)
	var got []*invariant.Violation
	c := invariant.New(arb, tbl, heap, func(v *invariant.Violation) { got = append(got, v) })
	c.AtCommit(0, 1)
	c.AtCommit(0, 2)
	if len(got) != 0 {
		t.Fatalf("advancing commits flagged: %v", got[0])
	}
	c.AtCommit(0, 2)
	if len(got) != 1 || got[0].Rule != "heap-commit-monotone" {
		t.Fatalf("repeated commit sequence not flagged as heap-commit-monotone: %v", got)
	}
}

// TestCheckerWakeClockMonotone: under a deterministic arbiter a wake that
// would set a clock below the one the thread parked at is flagged, on the
// waking thread; wakes at or past it are not. A nondeterministic arbiter's
// clocks carry no order, so nothing is checked there.
func TestCheckerWakeClockMonotone(t *testing.T) {
	arb := dlc.New(2)
	arb.Tick(1, 40) // thread 1's clock when it parked
	var got []*invariant.Violation
	c := invariant.New(arb, detsync.NewTable(2, 0, 0, 0, false), nil, func(v *invariant.Violation) { got = append(got, v) })
	c.AtWake(0, 1, 40)
	c.AtWake(0, 1, 41)
	if len(got) != 0 {
		t.Fatalf("wake at or past the park clock flagged: %v", got[0])
	}
	c.AtWake(0, 1, 39)
	if len(got) != 1 || got[0].Rule != "wake-clock-monotone" || got[0].Thread != 0 || got[0].Lock != -1 {
		t.Fatalf("wake below the park clock: got %v, want one wake-clock-monotone violation on thread 0", got)
	}
	if !strings.Contains(got[0].Detail, "thread 1 parked at DLC 40 is woken at DLC 39") {
		t.Fatalf("violation detail %q does not name the woken thread and both clocks", got[0].Detail)
	}

	nondet := invariant.New(dlc.NewNondet(2), detsync.NewTable(2, 0, 0, 0, false), nil, func(v *invariant.Violation) { got = append(got, v) })
	nondet.AtWake(0, 1, -1)
	if len(got) != 1 {
		t.Fatalf("nondeterministic wake flagged: %v", got[1])
	}
}

// TestCleanRunNoViolations: an unmutated multi-threaded speculative run —
// contended locks, barriers, commits and reverts — audits clean under both
// LazyDet and Consequence.
func TestCleanRunNoViolations(t *testing.T) {
	for _, speculation := range []bool{false, true} {
		r := newAuditRig(4, 4, speculation)
		progs := make([]*dvm.Program, 4)
		for tid := range progs {
			b := dvm.NewBuilder("clean")
			i, v := b.Reg(), b.Reg()
			b.ForN(i, 60, func() {
				b.Lock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
				b.Unlock(dvm.Const(0))
				b.Lock(dvm.Dyn(func(th *dvm.Thread) int64 { return 1 + th.R(i)%3 }))
				b.Unlock(dvm.Dyn(func(th *dvm.Thread) int64 { return 1 + th.R(i)%3 }))
				b.Barrier(dvm.Const(0))
			})
			progs[tid] = b.Build()
		}
		dvm.Run(r.eng, progs)
		if len(r.violations) != 0 {
			t.Fatalf("speculation=%v: clean run reported %d violations, first: %v",
				speculation, len(r.violations), r.violations[0])
		}
		if got := r.heap.ReadCommitted(0); got != 4*60 {
			t.Fatalf("speculation=%v: cell 0 = %d, want %d", speculation, got, 4*60)
		}
	}
}

// faultyAuditor is a WindowAuditor stub reporting a fixed bitmap breach.
type faultyAuditor struct{ err error }

func (f faultyAuditor) Audit() (string, error) { return "commit-dirty-tracking", f.err }

// TestCheckerAtWindow: a window audit failure surfaces as a structured
// violation of the rule the window names, on the audited thread, and a clean
// audit reports nothing.
func TestCheckerAtWindow(t *testing.T) {
	arb := dlc.New(1)
	tbl := detsync.NewTable(1, 1, 0, 0, false)
	heap := vheap.New(64)
	var got []*invariant.Violation
	c := invariant.New(arb, tbl, heap, func(v *invariant.Violation) { got = append(got, v) })
	c.AtWindow(0, faultyAuditor{})
	if len(got) != 0 {
		t.Fatalf("clean dirty audit flagged: %v", got[0])
	}
	c.AtWindow(0, faultyAuditor{err: errors.New("page 3 dirty frame diffs against version 5, not the view base 2's version 1")})
	if len(got) != 1 {
		t.Fatalf("failed dirty audit reported %d violations, want 1", len(got))
	}
	v := got[0]
	if v.Rule != "commit-dirty-tracking" {
		t.Fatalf("violation rule = %q, want commit-dirty-tracking (%v)", v.Rule, v)
	}
	if v.Thread != 0 {
		t.Fatalf("violation names thread %d, want 0 (%v)", v.Thread, v)
	}
	if !strings.Contains(v.Detail, "diffs against version 5") {
		t.Fatalf("violation detail %q does not carry the audit error", v.Detail)
	}
}

// TestEndToEndDirtyAuditClean: with invariants on, a real speculative run
// exercises AtWindow at every visibility point and stays clean — the store path
// marks exactly what commits merge.
func TestEndToEndDirtyAuditClean(t *testing.T) {
	r := newAuditRig(3, 2, true)
	progs := make([]*dvm.Program, 3)
	for tid := range progs {
		b := dvm.NewBuilder("dirty-audit")
		i, v := b.Reg(), b.Reg()
		b.ForN(i, 40, func() {
			b.Lock(dvm.Const(0))
			b.Load(v, dvm.Const(0))
			b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
			// A silent store: marked in the bitmap, equal to the base version.
			b.Store(dvm.Const(1), dvm.Const(0))
			b.Unlock(dvm.Const(0))
		})
		progs[tid] = b.Build()
	}
	dvm.Run(r.eng, progs)
	if len(r.violations) != 0 {
		t.Fatalf("clean run reported %d violations, first: %v", len(r.violations), r.violations[0])
	}
	if got := r.heap.ReadCommitted(0); got != 3*40 {
		t.Fatalf("cell 0 = %d, want %d", got, 3*40)
	}
}

// TestCheckerTrimFloor: the checker rejects a trim floor that is ahead of the
// commit it is audited at — the shape an over-trim (or a corrupted floor)
// produces — and one that moved backwards since the last audit, and accepts
// real trims, whose floors only rise with the commits.
func TestCheckerTrimFloor(t *testing.T) {
	arb := dlc.New(1)
	tbl := detsync.NewTable(1, 1, 0, 0, false)
	heap := vheap.New(1024)
	var got []*invariant.Violation
	c := invariant.New(arb, tbl, heap, func(v *invariant.Violation) { got = append(got, v) })

	// Real commits with a single live view: every chain trims up to the
	// previous commit, so floors chase the sequence and must audit clean.
	v := heap.NewView()
	for round := 0; round < 6; round++ {
		for pi := int64(0); pi < 4; pi++ {
			v.Store(pi*256, int64(round))
		}
		seq, _ := v.Commit()
		c.AtCommit(0, seq)
	}
	if len(got) != 0 {
		t.Fatalf("clean trims flagged: %v", got[0])
	}

	flagged := func(vs []*invariant.Violation, detail string) bool {
		for _, v := range vs {
			if v.Rule == "trim-floor" && strings.Contains(v.Detail, detail) {
				return true
			}
		}
		return false
	}

	// A fresh checker told commit 1 just published must reject the trim
	// floor already sitting near commit 6.
	var got2 []*invariant.Violation
	c2 := invariant.New(arb, tbl, heap, func(v *invariant.Violation) { got2 = append(got2, v) })
	c2.AtCommit(0, 1)
	if !flagged(got2, "ahead of commit") {
		t.Fatalf("trim floor ahead of the audited commit not flagged as trim-floor: %v", got2)
	}

	// A checker that last audited a floor above the heap's must report the
	// floor as having moved backwards.
	var got3 []*invariant.Violation
	c3 := invariant.New(arb, tbl, heap, func(v *invariant.Violation) { got3 = append(got3, v) })
	c3.SetTrimFloorShadow(heap.TrimFloor() + 1)
	c3.AtCommit(0, heap.Seq())
	if !flagged(got3, "moved backwards") {
		t.Fatalf("trim floor below the last audited one not flagged as trim-floor: %v", got3)
	}
	v.Close()
}
