// Package core implements the deterministic multithreading runtime that is
// this repository's reproduction of the paper's systems:
//
//   - ModeStrong without speculation is Consequence (Merrifield et al.,
//     EuroSys'15): eager strong determinism — every synchronization
//     operation waits for the deterministic turn and commits/updates the
//     thread's isolated memory view.
//   - ModeWeak is TotalOrder-Weak: the same eager DLC total order, but no
//     memory isolation (Kendo-style weak determinism).
//   - ModeWeakNondet is TotalOrder-Weak-Nondet: synchronization still
//     funnels through one global serialization point, but ordered
//     nondeterministically — the paper's simulation of a "perfect logical
//     clock".
//   - ModeStrong with Config.Speculation is LazyDet, the paper's
//     contribution: speculative order elision with lock-level conflict
//     detection, adaptive per-lock speculation statistics, coarsening
//     across critical sections, revert/restart, and irrevocable upgrade
//     for system calls (paper §3). The speculation paths live in spec.go,
//     the policy that steers them in policy.go.
//
// The paper derives its comparison systems from the LazyDet code base
// (§5.3); this package mirrors that by hosting all deterministic engines
// behind one Config.
package core

import (
	"time"

	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/invariant"
	"lazydet/internal/mempipe"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// Mode selects the determinism regime.
type Mode int

const (
	// ModeStrong isolates threads in versioned memory and determinizes
	// both synchronization order and every load's value (strong
	// determinism). This is Consequence, and the substrate LazyDet
	// speculates on.
	ModeStrong Mode = iota
	// ModeWeak orders synchronization deterministically but shares memory
	// directly: deterministic only for race-free programs (Kendo-style
	// weak determinism).
	ModeWeak
	// ModeWeakNondet totally orders synchronization through a global
	// mutex, nondeterministically. No determinism guarantee; it models
	// the cost of total ordering alone.
	ModeWeakNondet
)

// String returns the evaluation's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeStrong:
		return "strong"
	case ModeWeak:
		return "weak"
	case ModeWeakNondet:
		return "weak-nondet"
	}
	return "unknown"
}

// SpecConfig selects the paper's Figure 11 ablations of LazyDet. The zero
// value is the full system; each field turns one feature off. The policy's
// parameters — the 85 % threshold, the coarsening floor of 8 and its earned
// ceiling of 64 — are constants of the policy (policy.go), tuned once on the
// hash-table microbenchmark and reused unchanged for all workloads, like the
// paper's (§3.4).
type SpecConfig struct {
	// NoCoarsening (LAZYDET-NoCoarsening) limits a speculation run to one
	// critical section. Otherwise a run spans 8 of them (the floor), and up
	// to 64 once the thread's last 64 runs all committed.
	NoCoarsening bool
	// NoIrrevocable (LAZYDET-NoIrrevocable) reverts a run that meets a
	// system call inside a speculative critical section, instead of
	// upgrading it to irrevocable status (paper §3.5).
	NoIrrevocable bool
	// NoPerLockStats (LAZYDET-NoPerLockStats) keeps one 64-bit success
	// history per thread for all locks, instead of one per (lock, thread).
	NoPerLockStats bool
}

// Config configures a deterministic engine.
type Config struct {
	// Mode selects the determinism regime.
	Mode Mode
	// Speculation enables LazyDet's lazy determinism. Requires
	// ModeStrong: speculation depends on the isolation that strong
	// determinism provides (paper §2.3).
	Speculation bool
	// Spec selects ablations of speculation; the zero value is full LazyDet.
	Spec SpecConfig
	// CheckInvariants enables the runtime audit layer
	// (internal/invariant): at every turn grant and every commit/revert
	// the engine asserts turn-holder uniqueness, heap commit monotonicity
	// and chain integrity, lock-table consistency, and snapshot
	// round-trip exactness. Off by default; when off the only cost is a
	// nil pointer compare at each audit point.
	CheckInvariants bool
	// Hints carries per-lock speculation priors indexed by lock ID — the
	// progcheck footprint analysis verdicts, lowered by the harness. Nil,
	// or any lock beyond the slice, means HintNone. Only meaningful with
	// Speculation; the hinted policy must be behavior-equivalent to the
	// unhinted one (identical final memory and Validate outcomes), which
	// lazydet-fuzz checks differentially.
	Hints []SpecHint
}

// SpecHint is a static prior for the per-lock speculation policy, computed
// by internal/progcheck's critical-section footprint analysis. The zero
// value means "no static fact" and leaves the adaptive policy (§3.4) in
// sole control.
type SpecHint uint8

const (
	// HintNone: no static verdict; runtime adaptation decides alone.
	HintNone SpecHint = iota
	// HintDisjoint: every pair of critical sections guarded by this lock
	// has a provably non-overlapping data footprint, so speculation on it
	// can never fail validation. The engine always speculates on the lock
	// and skips its conflict checks at commit (DESIGN.md §5e).
	HintDisjoint
	// HintConflicting: two sections provably write-overlap on a constant
	// address, so speculation is wasted work. The engine seeds the lock's
	// success histories at all-failure (conventional until virtual probes
	// earn speculation back) instead of the optimistic all-success default.
	HintConflicting
)

// Deps carries the substrates an engine runs on. Heap is required for
// ModeStrong, Mem for the weak modes. Rec, Times and Spec are optional.
type Deps struct {
	Arb   *dlc.Arbiter
	Tbl   *detsync.Table
	Heap  *vheap.Heap
	Mem   *shmem.Mem
	Rec   *trace.Recorder
	Times *stats.Times
	Spec  *stats.Spec
	// Tel, if non-nil, receives the engine's telemetry: turn-wait counters
	// and, when the recorder keeps spans, per-thread DLC-stamped timelines
	// of turn waits, speculation runs, commits and reverts. Disabled (nil)
	// costs one pointer compare per audit point, like OnViolation.
	Tel *telemetry.Recorder
	// OnViolation receives invariant violations; required when
	// Config.CheckInvariants is set.
	OnViolation func(*invariant.Violation)
}

// Engine is the deterministic runtime. It implements dvm.Engine.
type Engine struct {
	cfg   Config
	arb   *dlc.Arbiter
	tbl   *detsync.Table
	pipe  mempipe.Pipeline
	rec   *trace.Recorder
	times *stats.Times
	spec  *stats.Spec
	tel   *telemetry.Recorder

	// tel's per-turn counter cell, resolved once.
	turnWaits *telemetry.Counter

	// mems holds the per-thread memory windows, indexed by thread ID.
	mems []mempipe.Thread

	// started[tid] is closed when thread tid's ThreadStart has run, so a
	// suspended thread is registered as parked before Spawn unparks it.
	started []chan struct{}

	// audit is the invariant checker, nil unless Config.CheckInvariants.
	audit *invariant.Checker

	// irrevocableOwner is the thread ID holding irrevocable status, or
	// -1. Read and written only at deterministic turn points.
	irrevocableOwner int

	// pol is the speculation policy (policy.go).
	pol policy

	// waiters is every thread parked on a held lock, a live join target,
	// the irrevocable run, a condition variable or a barrier, in park order:
	// one FIFO for all events, in engine state rather than on each object,
	// mutated only at turns. A thread sits in it at most once.
	waiters []waiter
}

// New builds an engine. It panics on inconsistent configuration, which is a
// programming error in the harness.
func New(cfg Config, d Deps) *Engine {
	if cfg.Speculation && cfg.Mode != ModeStrong {
		panic("core: speculation requires ModeStrong (lazy determinism needs thread isolation)")
	}
	if cfg.Mode == ModeStrong && d.Heap == nil {
		panic("core: ModeStrong requires a versioned heap")
	}
	if cfg.Mode != ModeStrong && d.Mem == nil {
		panic("core: weak modes require direct shared memory")
	}
	if (cfg.Mode == ModeWeakNondet) != d.Arb.Nondet() {
		panic("core: arbiter determinism does not match mode")
	}
	e := &Engine{
		cfg:              cfg,
		arb:              d.Arb,
		tbl:              d.Tbl,
		rec:              d.Rec,
		times:            d.Times,
		spec:             d.Spec,
		tel:              d.Tel,
		turnWaits:        d.Tel.Handle("turn.waits"),
		irrevocableOwner: -1,
	}
	if cfg.Mode == ModeStrong {
		e.pipe = mempipe.NewVersioned(d.Heap, d.Tel)
	} else {
		e.pipe = mempipe.NewFlat(d.Mem)
	}
	// Every thread's memory window is created here, before any thread runs,
	// so all views start from the same heap sequence. Created in ThreadStart
	// they would be based on whatever had been committed by the wall-clock
	// moment each goroutine first ran — and a first speculation run's
	// baseAtBegin, hence its validation outcome, would depend on host
	// scheduling (TestInitialViewBaseIgnoresStartOrder).
	e.mems = make([]mempipe.Thread, d.Arb.N())
	e.started = make([]chan struct{}, d.Arb.N())
	for tid := range e.mems {
		e.mems[tid] = e.pipe.NewThread(tid)
		e.started[tid] = make(chan struct{})
	}
	if cfg.CheckInvariants {
		e.audit = invariant.New(d.Arb, d.Tbl, d.Heap, d.OnViolation)
	}
	e.pol = newPolicy(cfg, d.Tbl, d.Spec)
	return e
}

// Name implements dvm.Engine, using the evaluation's system names.
func (e *Engine) Name() string {
	switch {
	case e.cfg.Speculation:
		return "LazyDet"
	case e.cfg.Mode == ModeStrong:
		return "Consequence"
	case e.cfg.Mode == ModeWeak:
		return "TotalOrder-Weak"
	default:
		return "TotalOrder-Weak-Nondet"
	}
}

// Deterministic implements dvm.Engine. Strong modes are deterministic for
// all programs; ModeWeak only for data-race-free programs (all workloads in
// this repository are race-free); ModeWeakNondet is not deterministic.
func (e *Engine) Deterministic() bool { return e.cfg.Mode != ModeWeakNondet }

// strong reports whether the engine isolates threads in versioned memory.
func (e *Engine) strong() bool { return e.cfg.Mode == ModeStrong }

// tstate is the engine's per-thread state, stored in Thread.EngineData.
type tstate struct {
	// mem is the thread's window onto the engine's memory pipeline:
	// versioned (isolated) in strong mode, flat otherwise. The same window
	// backs the VM's Thread.Mem.
	mem mempipe.Thread

	// held is every lock the thread holds, exclusive or shared, in
	// acquisition order; its length is the lock nesting depth. Inside a
	// speculation run every hold is speculative (runs begin outside critical
	// sections), outside one none is.
	held []heldLock

	// tickFlushes counts the batched clock flushes this thread sent into
	// the arbiter (see dlc.TickWindow) — published as the deterministic
	// "dlc.tick_flushes" counter at thread exit. Thread-local, so the hot
	// Tick path never touches the telemetry registry's mutex.
	tickFlushes int64

	// Speculation state (paper §3.1–§3.5).
	spec        bool                 // inside a speculation run
	irrevocable bool                 // run upgraded to irrevocable
	begin       int64                // BEGIN_i: DLC when the run started
	baseAtBegin int64                // heap sequence the run's view is based on
	snap        *dvm.Snapshot        // state to restore on revert
	dirtySnap   *vheap.DirtySnapshot // pre-run private writes, preserved across reverts

	// snapScratch and dirtyScratch are the retained buffers snap/dirtySnap
	// are rebuilt into at every BEGIN (per-thread scratch, not a sync.Pool,
	// so recycling cannot perturb deterministic allocation-order counts).
	snapScratch  *dvm.Snapshot
	dirtyScratch *vheap.DirtySnapshot
	log          specLog // L_i and the atomic log (speclog.go)
	runCS        int     // critical sections in the current run
	noSpecNext   bool    // progress guarantee after a revert (§3.2)

	pol threadPolicy // the thread's histories and probe
}

// heldLock is a held lock, its mode and the thread's store count
// (dvm.Thread.Stores) at its acquisition. The release of an exclusive hold
// that finds the count moved publishes the section as one that stored, under
// this lock or under one nested inside it: only then does the lock's commit
// sequence advance, and with it the conflict that concurrent runs which
// logged the lock see (spec.go's validate).
type heldLock struct {
	lock   int64
	stores int64
	rec    int32 // a speculative hold's record in the run's log
	write  bool  // exclusive
}

// wrote reports whether thread t stored since h was taken.
func (h heldLock) wrote(t *dvm.Thread) bool { return t.Stores() != h.stores }

// drop removes the thread's most recent hold of l in the given mode and
// returns it, and whether thread t stored while it was held.
func (ts *tstate) drop(t *dvm.Thread, l int64, write bool) (h heldLock, stored bool) {
	for i := len(ts.held) - 1; i >= 0; i-- {
		if h = ts.held[i]; h.lock == l && h.write == write {
			ts.held = append(ts.held[:i], ts.held[i+1:]...)
			return h, h.wrote(t)
		}
	}
	return heldLock{}, false
}

func (e *Engine) ts(t *dvm.Thread) *tstate { return t.EngineData.(*tstate) }

// newTState is thread tid's state before its first instruction.
func (e *Engine) newTState(tid int) *tstate {
	return &tstate{mem: e.mems[tid], pol: newThreadPolicy(tid)}
}

// ThreadStart implements dvm.Engine. Suspended threads are registered as
// parked, so they do not pin the global clock minimum at zero before they
// are spawned, and Spawn waits for that registration: arriving after the
// spawn's Unpark, it would park a running thread, and a joiner parking on
// it would find every thread parked.
func (e *Engine) ThreadStart(t *dvm.Thread) {
	ts := e.newTState(t.ID)
	t.Mem = ts.mem
	t.EngineData = ts
	// The thread's logical-clock reader: arb.DLC is this thread's own
	// clock, so the read is exact at every published flush point and
	// needs no arbitration. Deterministic by the same argument as the
	// tick stream itself.
	tid := t.ID
	t.Clock = func() int64 { return e.arb.DLC(tid) }
	if e.tel != nil {
		// Per-opcode retired-instruction counters: the opcode mix is a
		// function of the deterministic schedule under this engine, so it
		// is published as gateable metrics at thread exit.
		t.EnableRetiredCounts()
	}
	if t.Prog().StartSuspended {
		e.arb.SetParked(t.ID)
	}
	close(e.started[t.ID])
}

// ThreadExit implements dvm.Engine: terminate any outstanding speculation
// run (re-running the thread if the run reverts), publish outstanding
// writes, and leave turn arbitration.
func (e *Engine) ThreadExit(t *dvm.Thread) bool {
	ts := e.ts(t)
	if ts.spec {
		if !e.terminateRun(t, ts) {
			return false // reverted: resume interpreting from the snapshot
		}
	}
	if e.arb.Nondet() {
		e.arb.Exit(t.ID)
		return true
	}
	// Take a final turn: the exit commit publishes outstanding writes
	// (strong mode), and Exit in place of releasing the turn makes the
	// Exited status visible exactly at this deterministic boundary, where
	// the thread's joiners are woken.
	e.waitCommitTurn(t)
	e.publish(t, ts)
	e.wake(t, waitJoin, int64(t.ID), true)
	if e.tel != nil {
		// The thread's final clock: summed over threads this is the run's
		// total deterministic logical work, the report's "dlc.total".
		e.tel.Count("dlc.total", e.arb.DLC(t.ID))
		// How many batched flushes delivered it (see dlc.TickWindow):
		// dlc.total / dlc.tick_flushes is the realized batching factor.
		e.tel.Count("dlc.tick_flushes", ts.tickFlushes)
		// The retired opcode mix, summed across threads. Re-executions
		// after speculation reverts retire again, exactly as the thread
		// re-ran them; both backends count identically.
		for op, n := range t.RetiredCounts() {
			if n != 0 {
				e.tel.Count("dvm.retired."+dvm.Opcode(op).String(), n)
			}
		}
	}
	e.arb.Exit(t.ID)
	ts.mem.Close()
	return true
}

// Tick implements dvm.Engine. The interpreter batches retired-instruction
// cost (dlc.TickWindow), so this runs once per batch, not per instruction.
func (e *Engine) Tick(t *dvm.Thread, cost int64) {
	if cost == 0 {
		return
	}
	e.ts(t).tickFlushes++
	e.arb.Tick(t.ID, cost)
}

// waitTurn blocks for the deterministic turn, charging blocked time.
//
//lazydet:nondeterministic the wall clock only measures blocked time for stats.Times; the value never influences control flow
func (e *Engine) waitTurn(t *dvm.Thread) {
	if e.times == nil {
		e.arb.WaitTurn(t.ID)
		return
	}
	start := time.Now()
	e.arb.WaitTurn(t.ID)
	e.times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
}

// syncCost is the DLC increment charged for a completed synchronization
// operation. No caller has ever needed another value, so it is a constant,
// not configuration.
const syncCost int64 = 2

// waitCommitTurn blocks for a turn at which the thread is allowed to commit:
// while another thread holds irrevocable status, everyone else's commits are
// blocked (paper §3.5). A thread granted the turn during that time parks
// behind the irrevocable run, and the run's commit wakes it (wake).
//
// With telemetry enabled the whole wait is one turn-wait span in DLC time:
// from the clock at which the thread first requested the turn to the clock
// at which a commit-capable turn was granted. Both stamps, and the count of
// turns granted while another run was irrevocable, are deterministic — they
// depend only on the deterministic irrevocability schedule.
func (e *Engine) waitCommitTurn(t *dvm.Thread) {
	defer phaseBegin("grant")()
	var d0, retries int64
	if e.tel != nil {
		d0 = e.arb.DLC(t.ID)
	}
	for {
		e.waitTurn(t)
		if e.audit != nil {
			e.audit.AtTurn(t.ID)
		}
		if e.irrevocableOwner == -1 || e.irrevocableOwner == t.ID {
			if e.tel != nil {
				e.turnWaits.Add(1)
				e.tel.Span(t.ID, telemetry.SpanTurnWait, d0, e.arb.DLC(t.ID), retries)
			}
			return
		}
		retries++
		e.park(t, waiter{kind: waitIrrevocable})
	}
}

// waitKind names the event a parked thread waits for.
type waitKind uint8

const (
	waitLock        waitKind = iota // its lock's release
	waitJoin                        // its target's exit
	waitIrrevocable                 // the irrevocable run's commit
	waitCond                        // a signal or broadcast on its condition variable
	waitBarrier                     // its barrier's last arrival
)

// waiter is a thread parked until an event frees it: a lock it cannot take
// (in the mode write says), a join target that has not exited, the
// irrevocable run, a condition variable, or a barrier.
type waiter struct {
	tid   int
	kind  waitKind
	write bool  // an exclusive acquisition: a lock writer, or a condition waiter re-taking its lock
	on    int64 // the lock, join target, condition variable or barrier
}

// park queues thread t behind w's event and parks it until the event's turn
// wakes it. Caller holds the turn, which it gives up; on return the thread
// is running again, with the clock its waker gave it, and holds no turn.
func (e *Engine) park(t *dvm.Thread, w waiter) {
	w.tid = t.ID
	e.waiters = append(e.waiters, w)
	e.arb.Park(t.ID)
	e.blockedWake(t)
}

// wake unparks, in park order, the threads that the event (kind, on) frees:
// with all, every waiter (a broadcast, a barrier's last arrival, a join, the
// irrevocable run's commit); otherwise the head and, if the head is a reader,
// the readers queued directly behind it (a lock release, or a signal, whose
// waiters queue as writers). The k-th woken gets clock my+1+k, my the
// waker's: a function of the waker's turn and the queue order, both
// turn-ordered. In the deterministic modes the waker's turn puts my at or
// above every parked clock, so no woken clock moves back (audited as
// wake-clock-monotone, DESIGN.md §3b); a nondeterministic arbiter's clocks
// move only here, and there one may. A woken lock waiter re-checks the lock
// at its next turn and parks again, at the tail, if another took it first.
// Caller holds the turn.
func (e *Engine) wake(t *dvm.Thread, kind waitKind, on int64, all bool) {
	my := e.arb.DLC(t.ID)
	var k int64
	headWrite, done := false, false
	kept := e.waiters[:0]
	for _, w := range e.waiters {
		if done || w.kind != kind || w.on != on {
			kept = append(kept, w)
			continue
		}
		if !all && k > 0 && (headWrite || w.write) {
			done = true
			kept = append(kept, w)
			continue
		}
		headWrite = headWrite || w.write
		if e.audit != nil {
			e.audit.AtWake(t.ID, w.tid, my+1+k)
		}
		e.arb.Unpark(w.tid, my+1+k)
		e.tbl.Wake(w.tid)
		k++
	}
	e.waiters = kept
}

// blockedWake waits for a Wake, charging blocked time.
//
//lazydet:nondeterministic the wall clock only measures blocked time for stats.Times; the value never influences control flow
func (e *Engine) blockedWake(t *dvm.Thread) {
	if e.times == nil {
		e.tbl.WaitWake(t.ID)
		return
	}
	start := time.Now()
	e.tbl.WaitWake(t.ID)
	e.times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
}
