// Package invariant is the runtime audit layer for the deterministic
// engines: a zero-cost-when-off checker that turns the safety invariants the
// other packages document into machine-checked assertions.
//
// The determinism argument of this repository (and of the paper, §3.2–§3.3)
// rests on a handful of structural invariants that the substrates maintain
// but, without this package, never verify:
//
//  1. Turn discipline (internal/dlc): at most one thread holds StatusTurn,
//     and the holder is the (DLC, thread-id) minimum over all threads that
//     are neither parked nor exited. Under the tournament arbiter, the
//     trees themselves are audited: published clocks never lead the true
//     clocks, every internal node is the match of its children, and both
//     roots agree with a direct flat scan — the tree's answer is the scan's
//     answer. A parked thread is woken at a clock past its waker's, and the
//     waker holds the turn, so no woken clock is below the clock the thread
//     parked at (checked at each wake).
//  2. Versioned-heap integrity (internal/vheap): commit sequences are
//     strictly monotone, page version chains are strictly decreasing in
//     sequence, trimming never cuts a version a live view's base still
//     needs, and — checked at each publication, before the commit consumes
//     the dirty set — every dirty page diffs against the version the view's
//     base resolves to, so the bitmap commit path publishes exactly the
//     words that differ from what the view read.
//     The sequence of trim floors never decreases and never passes the
//     newest commit — a stale floor cache may trim less, never more.
//  3. Lock-table consistency (internal/detsync): a lock is never held
//     exclusively and shared at the same time, reader counts are
//     non-negative, and each lock's commit sequence (LastCommitSeq) only
//     advances, never past the heap's newest commit. Because the checker
//     runs at every turn grant and those fields are only allowed to mutate
//     at turns, any off-turn or backwards mutation surfaces at the very next
//     turn grant. That a lock is acquired no earlier in logical time than
//     its last release needs no rule of its own: the releaser held the turn,
//     so by rule 1 every running clock was at least the release clock, and
//     every later wake lands past a waker that holds the turn.
//  4. Snapshot round-trip (internal/dvm + internal/core): after a
//     speculation revert, the thread's registers, PC, scratch and PRNG state
//     equal the BEGIN snapshot, and the view's dirty set is exactly the
//     pre-run dirty set — the run's writes are gone and the pre-run writes
//     survived.
//
// A violation is reported as a structured diagnostic (*Violation) naming the
// rule, thread, logical time and lock, at the turn where the corruption is
// first observable — instead of the distant trace-hash mismatch it would
// otherwise decay into. The caller supplies the reporter; harness.Run
// collects the violations and returns the first as the run's error, which
// under determinism is perfectly repeatable (paper Appendix A).
//
// Checker methods are invoked only by the thread currently holding the
// deterministic turn; consecutive turn holders synchronize through the
// arbiter, so the checker's shadow state needs no locking of its own (the
// same argument detsync makes for the lock table).
package invariant

import (
	"fmt"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/vheap"
)

// Violation is one detected invariant breach: a structured diagnostic
// carrying everything needed to localize the corruption. It implements
// error.
type Violation struct {
	// Rule names the broken invariant, e.g. "turn-minimum",
	// "heap-commit-monotone", "lock-commitseq-monotone", "revert-snapshot",
	// "wake-clock-monotone".
	Rule string
	// Thread is the turn-holding thread that observed the breach.
	Thread int
	// DLC is that thread's logical clock at the observation.
	DLC int64
	// Status is the observing thread's arbiter status.
	Status dlc.Status
	// Lock is the offending lock id for lock-table rules, -1 otherwise.
	Lock int64
	// Detail describes the breach in terms of the observed values.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	if v.Lock >= 0 {
		return fmt.Sprintf("invariant %s: thread %d @ DLC %d (status %v), lock %d: %s",
			v.Rule, v.Thread, v.DLC, v.Status, v.Lock, v.Detail)
	}
	return fmt.Sprintf("invariant %s: thread %d @ DLC %d (status %v): %s",
		v.Rule, v.Thread, v.DLC, v.Status, v.Detail)
}

// Checker audits the invariants of one engine's substrates. A nil *Checker
// is valid and checks nothing, so engines can keep unconditional call sites
// cheap; the engines here additionally guard call sites with a nil test to
// keep the default-off cost to a pointer compare.
type Checker struct {
	arb    *dlc.Arbiter
	tbl    *detsync.Table
	heap   *vheap.Heap // nil for the weak (unisolated) engines
	report func(*Violation)

	// lastCommitSeq shadows the newest heap commit sequence the checker
	// has seen, for strict-monotonicity checking.
	lastCommitSeq int64

	// trimFloor shadows the heap's last trim floor, for the
	// floor-monotonicity check; -1 matches the heap's pre-first-trim floor.
	trimFloor int64

	// Shadow copy of each lock's commit sequence, updated at every
	// turn-grant audit. A value that moves backwards between two audits was
	// corrupted (the field is only allowed to advance, and only at turns).
	commitSeq []int64
}

// New builds a checker over an engine's substrates. heap may be nil (weak
// engines have no versioned memory). report receives every violation.
func New(arb *dlc.Arbiter, tbl *detsync.Table, heap *vheap.Heap, report func(*Violation)) *Checker {
	c := &Checker{arb: arb, tbl: tbl, heap: heap, report: report, trimFloor: -1}
	if tbl != nil {
		c.commitSeq = make([]int64, len(tbl.Locks))
	}
	return c
}

// violate reports one breach observed by thread tid.
func (c *Checker) violate(tid int, lock int64, rule, detail string) {
	c.report(&Violation{
		Rule:   rule,
		Thread: tid,
		DLC:    c.arb.DLC(tid),
		Status: c.arb.Status(tid),
		Lock:   lock,
		Detail: detail,
	})
}

// AtTurn audits the turn-discipline and lock-table invariants. The engine
// calls it on thread tid immediately after every turn grant, while the turn
// is held.
func (c *Checker) AtTurn(tid int) {
	if c == nil {
		return
	}
	if err := c.arb.AuditTurn(tid); err != nil {
		c.violate(tid, -1, "turn-minimum", err.Error())
	}
	if err := c.arb.AuditTree(); err != nil {
		c.violate(tid, -1, "arbiter-tree-min", err.Error())
	}
	c.auditLocks(tid)
}

// auditLocks checks cross-field consistency and commit-sequence monotonicity
// for every lock. O(locks) per turn grant: acceptable for an audit mode that is
// off by default.
//
// The sequence checks are skipped under a nondeterministic arbiter, where
// turn order carries no monotone meaning — which is precisely why that mode
// guarantees nothing. Structural lock-state consistency still must hold.
func (c *Checker) auditLocks(tid int) {
	nondet := c.arb.Nondet()
	for l := range c.tbl.Locks {
		st := &c.tbl.Locks[l]
		li := int64(l)
		if st.Owner != 0 && st.Readers != 0 {
			c.violate(tid, li, "lock-owner-readers",
				fmt.Sprintf("held exclusively by thread %d and shared by %d readers at once", st.Owner-1, st.Readers))
		}
		if st.Readers < 0 {
			c.violate(tid, li, "lock-readers-negative",
				fmt.Sprintf("reader count %d", st.Readers))
		}
		if nondet {
			continue
		}
		if st.LastCommitSeq < c.commitSeq[l] {
			c.violate(tid, li, "lock-commitseq-monotone",
				fmt.Sprintf("LastCommitSeq moved backwards: %d -> %d", c.commitSeq[l], st.LastCommitSeq))
		}
		if c.heap != nil && st.LastCommitSeq > c.heap.Seq() {
			c.violate(tid, li, "lock-commitseq-future",
				fmt.Sprintf("LastCommitSeq %d is ahead of the heap's newest commit %d", st.LastCommitSeq, c.heap.Seq()))
		}
		c.commitSeq[l] = st.LastCommitSeq
	}
}

// AtWake audits a hand-off: turn holder waker is about to unpark thread
// woken at clock dlc. Rule wake-clock-monotone: in the deterministic modes the
// new clock is at least the clock woken parked at (frozen since), because the
// waker holds the turn. A nondeterministic arbiter's clocks move only by
// wakes, so its woken clocks carry no order and are not checked.
func (c *Checker) AtWake(waker, woken int, dlc int64) {
	if c == nil || c.arb.Nondet() {
		return
	}
	if parked := c.arb.DLC(woken); dlc < parked {
		c.violate(waker, -1, "wake-clock-monotone",
			fmt.Sprintf("thread %d parked at DLC %d is woken at DLC %d", woken, parked, dlc))
	}
}

// WindowAuditor is the slice of a thread's memory window the checker needs:
// a self-check that names the rule a failure breaks. mempipe windows
// implement it; flat windows report nil (nothing is tracked).
type WindowAuditor interface {
	Audit() (rule string, err error)
}

// AtWindow audits a thread's memory window. Rule commit-dirty-tracking:
// every dirty page must diff against the version the view's base resolves
// to, and only marked words may be forced, or the bitmap commit path is
// about to publish the wrong words. Rule
// view-page-table: the dense dirty/clean tables, generation stamps and
// pooled frames must be mutually consistent, or a recycled frame is about to
// leak stale words into a commit. The engine calls it before every
// publication (a commit clears the dirty set) and after restoring a revert
// snapshot — on the owning thread (the dirty set is thread-private and
// mutated off-turn by stores), while it holds the turn.
func (c *Checker) AtWindow(tid int, m WindowAuditor) {
	if c == nil || c.heap == nil {
		return
	}
	if rule, err := m.Audit(); err != nil {
		c.violate(tid, -1, rule, err.Error())
	}
}

// AtCommit audits the versioned heap after thread tid published commit seq:
// commit sequences must advance strictly, and the page version chains and
// trim floor must be intact. Called while the committing thread holds the
// turn.
func (c *Checker) AtCommit(tid int, seq int64) {
	if c == nil || c.heap == nil {
		return
	}
	if seq <= c.lastCommitSeq {
		c.violate(tid, -1, "heap-commit-monotone",
			fmt.Sprintf("commit sequence %d does not advance past %d", seq, c.lastCommitSeq))
	}
	c.lastCommitSeq = seq
	if err := c.heap.Audit(); err != nil {
		c.violate(tid, -1, "heap-chain", err.Error())
	}
	f := c.heap.TrimFloor()
	if f < c.trimFloor {
		c.violate(tid, -1, "trim-floor",
			fmt.Sprintf("trim floor moved backwards: %d -> %d", c.trimFloor, f))
	}
	if f > seq {
		c.violate(tid, -1, "trim-floor",
			fmt.Sprintf("trim floor %d is ahead of commit %d", f, seq))
	}
	c.trimFloor = f
}

// AtRevert audits a speculation revert: the thread must be exactly the BEGIN
// snapshot again, and the view's dirty set must be exactly the pre-run dirty
// set (the run's writes discarded, the pre-run writes preserved). Called by
// the reverting thread while it holds the turn, after the restore.
func (c *Checker) AtRevert(t *dvm.Thread, snap *dvm.Snapshot, dirtyWords, preRunWords int) {
	if c == nil {
		return
	}
	if err := t.MatchesSnapshot(snap); err != nil {
		c.violate(t.ID, -1, "revert-snapshot", err.Error())
	}
	if dirtyWords != preRunWords {
		c.violate(t.ID, -1, "revert-dirty",
			fmt.Sprintf("view holds %d dirty words after revert, want the pre-run dirty set of %d", dirtyWords, preRunWords))
	}
}
