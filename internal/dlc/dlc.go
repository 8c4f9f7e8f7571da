// Package dlc implements the deterministic logical clock (DLC) and the turn
// arbiter used by every deterministic engine in this repository.
//
// Each simulated thread owns a logical clock that counts retired virtual-
// machine instructions (weighted by per-instruction cost). A thread may
// perform a globally ordered action — a synchronization operation in the
// eager engines, a speculation commit in LazyDet — only when it holds "the
// turn": its (DLC, thread-id) pair is the minimum over all threads that are
// neither parked nor exited. This is the classic Kendo/Consequence turn
// discipline (see paper §2): the thread that arrives first in deterministic
// logical time goes next.
//
// Waiting is blocking, not spinning, and the turn is passed like a baton: a
// thread that is not yet the minimum registers as a waiter and sleeps on its
// token channel. Whoever then changes arbiter state — a release, a park, an
// exit, a tick crossing the minimum waiter's clock — evaluates the turn
// predicate on the minimum waiter's behalf under the mutex it already holds
// and, only if it holds, makes the waiter the turn holder and sends it one
// token. A token IS a grant: the woken thread returns without re-checking.
//
// # Tournament arbitration
//
// The arbiter resolves turns with a pair of tournament trees —
// complete binary trees whose leaves are threads and whose internal nodes
// each hold the winner (minimum (DLC, tid) key) of their two children. A
// state change updates one leaf and replays the O(log n) matches on its
// root path; the root is then the global minimum without any scan. One tree
// ranks all arbitration-eligible threads (the turn predicate), the other
// ranks only the waiters (the targeted-wakeup choice).
//
// The trees rank *published* clock snapshots, not the live atomics: Tick
// advances a thread's clock without the arbiter mutex, so the tree entry for
// a running thread may lag its true clock. That staleness is safe for the
// same reason TickWindow batching is: clocks only advance, so a lagging
// published clock can only make its thread look earlier than it is — which
// delays other threads' grants but never produces a wrong one. Liveness is
// lazy: when a waiter's check finds the tree root is a stale runner, the
// checker re-publishes that runner's clock and replays its path, repeating
// until the root is either fresh (no grant; a later tick crossing the
// min-waiter clock re-runs the check) or the waiter itself (grant).
//
// The arbiter also supports a nondeterministic mode, used to implement the
// TotalOrder-Weak-Nondet engine from the paper's evaluation: the turn becomes
// a plain mutex, still totally ordering the actions but no longer
// deterministically.
package dlc

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Status describes how a thread participates in turn arbitration.
type Status int32

const (
	// StatusRunning threads execute instructions and advance their DLC.
	StatusRunning Status = iota
	// StatusWaiting threads are blocked inside WaitTurn. Their DLC is
	// frozen and still participates in the minimum computation.
	StatusWaiting
	// StatusTurn threads have been granted the turn and are executing a
	// globally ordered action. Their DLC still participates in the
	// minimum, which is what serializes turn holders.
	StatusTurn
	// StatusParked threads are blocked on a condition variable, barrier,
	// lock or irrevocable run and are excluded from the minimum
	// computation. Threads may only be parked at a deterministic point
	// (while holding the turn), which is what keeps exclusion deterministic.
	StatusParked
	// StatusExited threads have finished their program.
	StatusExited
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusWaiting:
		return "waiting"
	case StatusTurn:
		return "turn"
	case StatusParked:
		return "parked"
	case StatusExited:
		return "exited"
	}
	return fmt.Sprintf("status(%d)", int32(s))
}

// TickWindow is the instruction-batching window the interpreter uses when
// flushing retired-instruction cost into Tick: instead of one Tick per
// retired instruction, cost accumulates thread-locally and flushes every
// TickWindow instructions and — unconditionally — immediately before every
// engine (synchronization) operation.
//
// Batching is safe because a thread's published clock then lags its true
// clock by at most the pending batch, and a lagging clock can only delay
// turn grants, never produce a wrong one: a waiter is granted the turn only
// when its exact (DLC, tid) pair is the minimum over published clocks, and
// every thread publishes its exact clock before requesting a turn. The
// sequence of (DLC, tid) pairs observed at synchronization points — the only
// inputs to the deterministic schedule — is therefore unchanged for every
// window size, while per-instruction arbiter traffic (an atomic add plus a
// min-waiter load) drops by the window factor. 64 keeps the worst-case extra
// wall-clock grant latency below one cache-miss-scale pause on any workload
// this repository runs.
const TickWindow = 64

// noWaiter is the sentinel stored in minWaiter when no thread is waiting.
const noWaiter = math.MaxInt64

type slot struct {
	dlc    atomic.Int64
	status atomic.Int32
	_      [48]byte // pad to a cache line to avoid false sharing
}

// isLive reports whether the status counts as live for deadlock detection:
// the thread either can run or will be granted a turn eventually.
func isLive(st Status) bool {
	return st == StatusRunning || st == StatusWaiting || st == StatusTurn
}

// eligible reports whether the status participates in turn arbitration.
func eligible(st Status) bool {
	return st != StatusParked && st != StatusExited
}

// Arbiter arbitrates the deterministic turn between a fixed set of threads.
//
// Grants are targeted: only the minimum waiter can ever be granted the
// turn (any other waiter is blocked by it), so state changes examine exactly
// that thread and wake it only when it is granted — at most one scheduler
// wakeup per turn instead of a broadcast to all waiters.
type Arbiter struct {
	mu        sync.Mutex
	slots     []slot
	wake      []chan struct{} // per-thread grant tokens, buffered 1 (see handOffLocked)
	minWaiter atomic.Int64    // min DLC among StatusWaiting threads, noWaiter if none

	// Tournament state, all guarded by mu. size is the leaf span (next
	// power of two >= len(slots)); both trees are laid out as implicit
	// binary heaps of length 2*size with leaves at [size, 2*size), the
	// root at [1], and -1 marking an empty slot. pub[i] is thread i's
	// published clock snapshot — the key its leaves are ranked by.
	size     int
	depth    int // internal levels above a leaf == log2(size)
	pub      []int64
	minTree  []int32 // ranks arbitration-eligible threads (turn predicate)
	waitTree []int32 // ranks StatusWaiting threads (targeted wakeup)

	// Incremental deadlock state, guarded by mu: live counts
	// Running/Waiting/Turn threads, parked counts Parked. Deadlock is the
	// O(1) test live == 0 && parked > 0.
	live   int
	parked int

	// Cumulative cost counters, guarded by mu. wakes counts grant tokens
	// sent; grantWork counts per-thread key inspections (match replays and
	// lazy refreshes).
	wakes     int64
	grantWork int64

	// Grant chaining, guarded by mu. lastGrant is the thread most recently
	// granted the turn (-1 before the first grant); chainHits counts grants
	// to the thread that also received the previous grant — a pure function
	// of the deterministic grant sequence; chainFast counts the subset of
	// those served through the cached-election fast path, which depends on
	// how stale runners' published clocks happened to be (wall-clock).
	lastGrant int
	chainHits int64
	chainFast int64

	// nondet switches the arbiter to nondeterministic total ordering:
	// WaitTurn/ReleaseTurn degenerate to a mutex and clocks are unused.
	nondet bool
	turnMu sync.Mutex

	// onDeadlock runs when every non-exited thread is parked: nothing can
	// ever unpark them, which is the repeatable deadlock that broken
	// synchronization produces under determinism (paper Appendix A).
	onDeadlock func()
}

// New returns an arbiter for n threads, all starting at DLC 0 in
// StatusRunning. Thread IDs are 0..n-1.
func New(n int) *Arbiter {
	a := &Arbiter{slots: make([]slot, n), wake: make([]chan struct{}, n), lastGrant: -1}
	for i := range a.wake {
		a.wake[i] = make(chan struct{}, 1)
	}
	a.minWaiter.Store(noWaiter)
	a.live = n
	size := 1
	for size < n {
		size <<= 1
	}
	a.size = size
	a.depth = bits.Len(uint(size)) - 1
	a.pub = make([]int64, n)
	a.minTree = make([]int32, 2*size)
	a.waitTree = make([]int32, 2*size)
	for i := range a.minTree {
		a.minTree[i] = -1
		a.waitTree[i] = -1
	}
	for i := 0; i < n; i++ {
		a.minTree[size+i] = int32(i)
	}
	for i := size - 1; i >= 1; i-- {
		a.minTree[i] = a.match(a.minTree[2*i], a.minTree[2*i+1])
	}
	return a
}

// NewNondet returns an arbiter whose turn is a plain mutex: actions are
// totally ordered but the order is not deterministic. Clock methods are
// no-ops.
func NewNondet(n int) *Arbiter {
	a := New(n)
	a.nondet = true
	return a
}

// Nondet reports whether the arbiter orders turns nondeterministically.
func (a *Arbiter) Nondet() bool { return a.nondet }

// SetDeadlockHandler installs a callback invoked (once, on the parking or
// exiting thread) when every non-exited thread has parked — a state nothing
// can undo, since wakeups only come from running threads. The default
// handler panics with a diagnostic; deterministic engines make such
// deadlocks perfectly repeatable.
func (a *Arbiter) SetDeadlockHandler(f func()) { a.onDeadlock = f }

// setStatusLocked transitions thread tid's status, maintaining the
// incremental live/parked counts. Caller holds a.mu. All status stores go
// through here so the counts can never drift from the statuses.
func (a *Arbiter) setStatusLocked(tid int, st Status) {
	old := Status(a.slots[tid].status.Load())
	if old == st {
		return
	}
	a.slots[tid].status.Store(int32(st))
	if isLive(old) && !isLive(st) {
		a.live--
	} else if !isLive(old) && isLive(st) {
		a.live++
	}
	if old == StatusParked {
		a.parked--
	}
	if st == StatusParked {
		a.parked++
	}
}

// checkDeadlockLocked fires the deadlock handler if no thread can run:
// every non-exited thread is parked. The incremental counts make this O(1).
// Caller holds a.mu.
func (a *Arbiter) checkDeadlockLocked() {
	if a.live > 0 || a.parked == 0 {
		return
	}
	if a.onDeadlock != nil {
		a.onDeadlock()
		return
	}
	panic("dlc: deterministic deadlock — every thread is parked on a condition variable, barrier, lock or irrevocable run and no waker remains")
}

// N returns the number of threads the arbiter manages.
func (a *Arbiter) N() int { return len(a.slots) }

// DLC returns the current logical clock of thread tid.
func (a *Arbiter) DLC(tid int) int64 { return a.slots[tid].dlc.Load() }

// match returns the winner of a tournament match: the child with the lower
// (published DLC, tid) key, -1 beaten by anything. Caller holds a.mu.
func (a *Arbiter) match(x, y int32) int32 {
	if x < 0 {
		return y
	}
	if y < 0 {
		return x
	}
	if dx, dy := a.pub[x], a.pub[y]; dx < dy || (dx == dy && x < y) {
		return x
	}
	return y
}

// replayLocked re-seats thread tid's leaf in tree (present iff active) and
// replays the O(log n) matches on its root path. Caller holds a.mu.
func (a *Arbiter) replayLocked(tree []int32, tid int, active bool) {
	i := a.size + tid
	if active {
		tree[i] = int32(tid)
	} else {
		tree[i] = -1
	}
	for i >>= 1; i >= 1; i >>= 1 {
		tree[i] = a.match(tree[2*i], tree[2*i+1])
	}
	a.grantWork += int64(a.depth)
}

// publishLocked snapshots thread tid's live clock into pub and replays its
// arbitration leaf if the snapshot changed. Caller holds a.mu. The wait tree
// never needs a replay here: a Waiting thread's clock is frozen, so
// publication only ever changes runners' keys.
func (a *Arbiter) publishLocked(tid int) {
	if cur := a.slots[tid].dlc.Load(); cur != a.pub[tid] {
		a.pub[tid] = cur
		a.replayLocked(a.minTree, tid, eligible(Status(a.slots[tid].status.Load())))
	}
}

// Tick advances thread tid's logical clock by cost. If the clock crosses the
// minimum waiter's clock, the ticker re-runs the waiter's turn check and
// hands the turn off if it now holds. Tick must only be called by thread tid
// itself while running. cost may be a multi-instruction batch (see
// TickWindow): the crossing test below brackets the minimum waiter between
// the old and new clock, so a batch that jumps past the waiter still checks.
//
// The minWaiter load is deliberately outside a.mu. The resulting race with a
// registering waiter is benign — see TestTickWaiterRegistrationRace for the
// pinned argument: Tick's clock advance (atomic Add) is sequenced before its
// minWaiter load, the waiter's minWaiter store is sequenced before its clock
// reads, and Go's sync/atomic operations are sequentially consistent, so in
// any interleaving at least one side observes the other (the store-buffer
// litmus shape) — either the ticker sees the waiter's clock and checks it, or
// the waiter's own registration check sees the ticker's advanced clock and
// never blocks on it. Both checks read live clocks under a.mu.
func (a *Arbiter) Tick(tid int, cost int64) {
	if a.nondet || cost == 0 {
		return
	}
	s := &a.slots[tid]
	now := s.dlc.Add(cost)
	mw := a.minWaiter.Load()
	if now >= mw && now-cost <= mw {
		// We just reached or passed the minimum waiter's clock, so we
		// may have stopped blocking it: a waiter with a lower thread ID
		// is unblocked at clock equality (tie-break), one with a higher
		// ID once we strictly exceed it.
		a.mu.Lock()
		a.publishLocked(tid)
		a.handOffLocked()
		a.mu.Unlock()
	}
}

// isMinLocked reports whether tid may be granted the turn: its (DLC, tid)
// pair is the global minimum among threads that are not parked or exited.
// Caller holds a.mu; tid must be Waiting (its published clock exact).
//
// The root resolves this, refreshing lazily: if the root is
// another thread, that thread either genuinely precedes tid (its published
// key is fresh — since published clocks never lead true clocks and clocks
// only advance, a fresh smaller key proves the true key is smaller too, so
// tid is not the minimum), or its snapshot is stale — then tid re-publishes
// it and replays its path. Each iteration either returns or strictly
// advances one runner's published clock, so the loop terminates; its work is
// exactly the publication debt runners skipped by ticking lock-free, paid by
// the thread that is blocked anyway.
func (a *Arbiter) isMinLocked(tid int) bool {
	for {
		a.grantWork++
		w := int(a.minTree[1])
		if w == tid {
			return true
		}
		if w < 0 {
			panic("dlc: waiting thread absent from the arbitration tree")
		}
		cur := a.slots[w].dlc.Load()
		if cur == a.pub[w] {
			// Fresh snapshot: w won the tournament against tid's exact
			// key, so tid is genuinely not the minimum.
			return false
		}
		a.pub[w] = cur
		a.replayLocked(a.minTree, w, true)
	}
}

// minWaiterLocked returns the waiter with the minimum (DLC, tid) key — the
// only waiter whose turn predicate can hold — or -1 when nobody waits. Caller
// holds a.mu.
func (a *Arbiter) minWaiterLocked() int {
	a.grantWork++
	return int(a.waitTree[1])
}

// refreshMinWaiterLocked recomputes the cached minimum-waiter clock that
// Tick's crossing test reads (a waiter's clock is frozen, so its live clock
// is its exact key). Caller holds a.mu.
func (a *Arbiter) refreshMinWaiterLocked() {
	min := int64(noWaiter)
	if w := a.minWaiterLocked(); w >= 0 {
		min = a.slots[w].dlc.Load()
	}
	a.minWaiter.Store(min)
}

// grantLocked makes waiter tid the turn holder: it leaves the wait tree, the
// min-waiter cache moves on, and the grant is booked in the chain counters.
// Caller holds a.mu and has established isMinLocked(tid).
func (a *Arbiter) grantLocked(tid int) {
	a.setStatusLocked(tid, StatusTurn)
	if tid == a.lastGrant {
		// A consecutive same-thread grant even when the cached election
		// could not be reused (stale runner snapshots forced the slow path):
		// the gated chain counter tracks the deterministic grant sequence,
		// not the wall-clock-dependent fast path.
		a.chainHits++
	}
	a.lastGrant = tid
	a.replayLocked(a.waitTree, tid, false)
	a.refreshMinWaiterLocked()
}

// handOffLocked passes the baton: the caller has just changed arbiter state,
// so it evaluates the turn predicate on behalf of the minimum waiter — with
// the same isMinLocked, on the same live clocks, the waiter itself would use
// — and, only if the waiter is the global minimum, grants it the turn and
// sends its token. Caller holds a.mu.
//
// The send cannot block: tokens go only to Waiting threads, the grant ends
// the waiting episode under a.mu, and the episode's WaitTurn consumes the
// token before the thread can wait again, so the buffer is empty here.
func (a *Arbiter) handOffLocked() {
	if w := a.minWaiterLocked(); w >= 0 && a.isMinLocked(w) {
		a.grantLocked(w)
		a.wakes++
		a.wake[w] <- struct{}{}
	}
}

// WaitTurn blocks until thread tid holds the turn. On return the thread's
// status is StatusTurn; the caller must eventually call ReleaseTurn.
func (a *Arbiter) WaitTurn(tid int) {
	if a.nondet {
		a.turnMu.Lock()
		return
	}
	a.mu.Lock()
	// Grant chaining: when the thread that received the previous grant
	// returns — the dominant shape on same-owner lock chains — publishing
	// its exact key and finding it still at the tournament root proves the
	// grant outright: every other published key is a lower bound on its
	// thread's true clock, so losing to tid's exact key means genuinely
	// losing. The cached election is reused: no waiter registration, no
	// wait-tree replays, no min-waiter refreshes. The grant sequence is
	// unchanged — the slow path would grant the same turn on its first
	// root inspection.
	if tid == a.lastGrant {
		a.publishLocked(tid)
		a.grantWork++
		if int(a.minTree[1]) == tid {
			a.setStatusLocked(tid, StatusTurn)
			a.chainHits++
			a.chainFast++
			a.mu.Unlock()
			return
		}
	}
	a.setStatusLocked(tid, StatusWaiting)
	// Publish the exact clock before registering as a waiter: grants compare
	// waiters by published key, which must be exact for the schedule to be
	// the (DLC, tid) order.
	a.publishLocked(tid)
	a.replayLocked(a.waitTree, tid, true)
	// The min-waiter cache is stored before the check below reads other
	// threads' clocks — the order Tick's lock-free crossing test relies on.
	a.refreshMinWaiterLocked()
	if a.isMinLocked(tid) {
		a.grantLocked(tid) // already the minimum: self-grant, no token
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	// Every later state change that could make tid the minimum runs the
	// check on its behalf (handOffLocked); the token is the grant.
	<-a.wake[tid]
}

// ReleaseTurn ends the turn, charging cost to the thread's clock, and hands
// the turn to the minimum waiter if it is next. The thread returns to
// StatusRunning.
func (a *Arbiter) ReleaseTurn(tid int, cost int64) {
	if a.nondet {
		a.turnMu.Unlock()
		return
	}
	s := &a.slots[tid]
	a.mu.Lock()
	s.dlc.Add(cost)
	a.setStatusLocked(tid, StatusRunning)
	a.publishLocked(tid)
	a.handOffLocked()
	a.mu.Unlock()
}

// Park transitions the thread from StatusTurn to StatusParked, excluding it
// from turn arbitration, and hands the turn off. It must be called
// while holding the turn, which makes the park point deterministic. The
// caller is responsible for actually blocking the thread (e.g. on a
// channel).
func (a *Arbiter) Park(tid int) {
	if a.nondet {
		// No clock discipline to maintain, but the live/parked counts
		// feeding Exit's deadlock check must stay coherent.
		a.mu.Lock()
		a.setStatusLocked(tid, StatusParked)
		a.mu.Unlock()
		a.turnMu.Unlock()
		return
	}
	a.mu.Lock()
	a.setStatusLocked(tid, StatusParked)
	a.replayLocked(a.minTree, tid, false)
	a.handOffLocked()
	a.checkDeadlockLocked()
	a.mu.Unlock()
}

// Unpark returns a parked thread to arbitration with the given clock value.
// It is called by the waking thread at its own deterministic turn point, so
// the new clock (derived from the waker's) is deterministic.
func (a *Arbiter) Unpark(tid int, newDLC int64) {
	a.mu.Lock()
	a.slots[tid].dlc.Store(newDLC)
	a.setStatusLocked(tid, StatusRunning)
	if !a.nondet {
		a.pub[tid] = newDLC
		a.replayLocked(a.minTree, tid, true)
	}
	a.handOffLocked()
	a.mu.Unlock()
}

// Exit removes the thread from arbitration permanently. It may be called
// while holding the turn (the exit then becomes visible exactly at that
// deterministic boundary) or while running.
func (a *Arbiter) Exit(tid int) {
	a.mu.Lock()
	a.setStatusLocked(tid, StatusExited)
	if !a.nondet {
		a.replayLocked(a.minTree, tid, false)
		a.replayLocked(a.waitTree, tid, false)
	}
	a.handOffLocked()
	a.checkDeadlockLocked()
	a.mu.Unlock()
}

// Status returns the current status of thread tid.
func (a *Arbiter) Status(tid int) Status {
	return Status(a.slots[tid].status.Load())
}

// Stats is a snapshot of the arbiter's cumulative cost counters. Wakes and
// GrantWork depend on wall-clock interleaving (whether a thread arrives
// before or after its predecessors moved on, how stale snapshots get) and are
// therefore reporting-only: deterministic metric gates must not include them.
type Stats struct {
	// Wakes counts cross-thread grants: turns handed to a registered waiter
	// by another thread, one token each. A thread that is already the
	// minimum on arrival grants itself without one, so Wakes <= grants.
	Wakes int64
	// GrantWork counts per-thread key inspections performed by the
	// arbiter: tournament match replays and lazy snapshot refreshes. The
	// scaling claim is this quantity growing sub-linearly in thread count.
	GrantWork int64
	// Depth is the tournament tree's match depth (0 in nondeterministic
	// mode).
	Depth int
	// ChainHits counts turn grants to the thread that also received the
	// previous grant. It is a pure function of the deterministic grant
	// sequence, so, unlike Wakes and GrantWork, it belongs with the gated
	// metrics.
	ChainHits int64
	// ChainFast counts the ChainHits served through
	// the cached-election fast path (no waiter registration, no wait-tree
	// replays). It depends on how stale runners' published snapshots were
	// at the moment of re-arrival, so it is reporting-only.
	ChainFast int64
}

// Stats returns the arbiter's cumulative cost counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := 0
	if !a.nondet {
		d = a.depth
	}
	return Stats{Wakes: a.wakes, GrantWork: a.grantWork, Depth: d,
		ChainHits: a.chainHits, ChainFast: a.chainFast}
}

// AuditTurn verifies the turn-discipline invariant from the perspective of
// thread tid, which must currently hold the turn: no other thread is in
// StatusTurn, and tid's (DLC, tid) pair is the minimum over all threads that
// are neither parked nor exited. It also cross-checks the incremental
// live/parked counts against a status scan. It must be called by tid itself
// between WaitTurn and ReleaseTurn — while tid holds the turn, other
// threads' clocks only advance and park/exit transitions cannot happen, so
// any violation observed under the arbiter mutex is genuine, not transient.
// Returns a descriptive error on breach, nil otherwise. In nondeterministic
// mode there is no clock discipline to audit.
func (a *Arbiter) AuditTurn(tid int) error {
	if a.nondet {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := Status(a.slots[tid].status.Load()); st != StatusTurn {
		return fmt.Errorf("dlc: thread %d audits the turn with status %v, want turn", tid, st)
	}
	my := a.slots[tid].dlc.Load()
	live, parked := 1, 0 // tid itself, in StatusTurn, is live
	for i := range a.slots {
		st := Status(a.slots[i].status.Load())
		if i == tid {
			continue
		}
		if isLive(st) {
			live++
		}
		if st == StatusParked {
			parked++
		}
		if st == StatusTurn {
			return fmt.Errorf("dlc: threads %d and %d hold the turn simultaneously", tid, i)
		}
		if st == StatusParked || st == StatusExited {
			continue
		}
		if d := a.slots[i].dlc.Load(); d < my || (d == my && i < tid) {
			return fmt.Errorf("dlc: turn holder %d @ DLC %d is not the (DLC, tid) minimum: thread %d (%v) is at DLC %d",
				tid, my, i, st, d)
		}
	}
	if live != a.live || parked != a.parked {
		return fmt.Errorf("dlc: incremental deadlock counts (live %d, parked %d) disagree with status scan (live %d, parked %d)",
			a.live, a.parked, live, parked)
	}
	return nil
}

// AuditTree verifies the tournament state against first principles: every
// published clock trails its thread's true clock (and equals it for frozen
// Waiting/Turn threads), leaf occupancy matches thread statuses, every
// internal node holds the match of its children, and both roots agree with
// direct scans over the published keys — the tree-vs-scan minimum agreement
// the invariant checker audits at every granted turn. Returns nil in
// nondeterministic mode, where the trees are unused.
//
// Like AuditTurn it must be called by a thread holding the turn, so that
// park/exit transitions and waiter registrations are quiescent; concurrent
// runners only advance their clocks, which cannot invalidate the trailing
// checks below.
func (a *Arbiter) AuditTree() error {
	if a.nondet {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.slots)
	for i := 0; i < n; i++ {
		st := Status(a.slots[i].status.Load())
		d := a.slots[i].dlc.Load()
		if a.pub[i] > d {
			return fmt.Errorf("dlc: thread %d published clock %d leads its true clock %d", i, a.pub[i], d)
		}
		if (st == StatusWaiting || st == StatusTurn) && a.pub[i] != d {
			return fmt.Errorf("dlc: frozen thread %d (%v) published clock %d != true clock %d", i, st, a.pub[i], d)
		}
		if got, want := a.minTree[a.size+i] >= 0, eligible(st); got != want {
			return fmt.Errorf("dlc: thread %d (%v) arbitration leaf occupancy %v, want %v", i, st, got, want)
		}
		if got, want := a.waitTree[a.size+i] >= 0, st == StatusWaiting; got != want {
			return fmt.Errorf("dlc: thread %d (%v) wait leaf occupancy %v, want %v", i, st, got, want)
		}
	}
	for i := n; i < a.size; i++ {
		if a.minTree[a.size+i] != -1 || a.waitTree[a.size+i] != -1 {
			return fmt.Errorf("dlc: phantom thread in padding leaf %d", i)
		}
	}
	for i := a.size - 1; i >= 1; i-- {
		if got, want := a.minTree[i], a.match(a.minTree[2*i], a.minTree[2*i+1]); got != want {
			return fmt.Errorf("dlc: arbitration tree node %d holds %d, match of children gives %d", i, got, want)
		}
		if got, want := a.waitTree[i], a.match(a.waitTree[2*i], a.waitTree[2*i+1]); got != want {
			return fmt.Errorf("dlc: wait tree node %d holds %d, match of children gives %d", i, got, want)
		}
	}
	minScan, waitScan := int32(-1), int32(-1)
	for i := 0; i < n; i++ {
		st := Status(a.slots[i].status.Load())
		if eligible(st) {
			minScan = a.match(minScan, int32(i))
		}
		if st == StatusWaiting {
			waitScan = a.match(waitScan, int32(i))
		}
	}
	if a.minTree[1] != minScan {
		return fmt.Errorf("dlc: arbitration tree root %d disagrees with published-key scan %d", a.minTree[1], minScan)
	}
	if a.waitTree[1] != waitScan {
		return fmt.Errorf("dlc: wait tree root %d disagrees with published-key scan %d", a.waitTree[1], waitScan)
	}
	return nil
}
