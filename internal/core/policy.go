package core

import (
	"math/bits"

	"lazydet/internal/detsync"
	"lazydet/internal/stats"
)

// This file is the speculation policy (paper §3.4; DESIGN.md §4, §4d, §5e):
// every history and threshold that decides whether a thread speculates on a
// lock and how many critical sections its run may span. The engine asks at
// its existing call sites; no other file reads or writes a history word. Every
// transition runs at the acting thread's turn and reads only state mutated at
// turns, so every decision is a function of the deterministic schedule
// (DESIGN.md §4 tables the transitions).

// The policy's parameters. They were tuned once, on the hash-table
// microbenchmark, and are the same for every workload (paper §3.4).
const (
	// specThresholdPermille is the success rate a history needs for the
	// thread to speculate: the paper's 85 %.
	specThresholdPermille = 850
	// runFloor is the coarsening limit every thread starts at: on this
	// runtime 8 sections maximise hash-table throughput (longer runs enlarge
	// the lock set, and with it the conflict probability, faster than they
	// amortise commits).
	runFloor = 8
	// runCeiling is the earned coarsening limit: the width of the run history
	// that earns it.
	runCeiling = 64
)

// policy is the engine-wide half: the static hints and a handle on the
// storage of the per-lock histories (the lock table's SpecHist, which only
// this file touches).
type policy struct {
	coarsen, perLock bool
	floor            int // run limit until earned: runFloor, 1 without coarsening
	hints            []SpecHint
	locks            []detsync.Lock
	stats            *stats.Spec // ExtendedRuns; nil disables
}

// threadPolicy is one thread's half, touched only at that thread's turns.
type threadPolicy struct {
	tid int
	// runHist is the outcomes of the thread's last 64 runs, whatever locks
	// they took. It starts all-failure: runCeiling is earned by 64 commits in
	// a row, never assumed.
	runHist uint64
	// threadHist is the thread's one speculation history when per-lock
	// statistics are off (Figure 11's LAZYDET-NoPerLockStats).
	threadHist uint64
}

// newPolicy seeds the histories. The per-lock speculation histories start
// optimistic (§3.4), all-success, except a Conflicting-hinted lock's, which
// starts all-failure: conventional for the whole execution, instead of paying
// the warm-up reverts.
func newPolicy(cfg Config, tbl *detsync.Table, spec *stats.Spec) policy {
	p := policy{
		coarsen: !cfg.Spec.NoCoarsening, perLock: !cfg.Spec.NoPerLockStats,
		floor: 1, hints: cfg.Hints, stats: spec,
	}
	if p.coarsen {
		p.floor = runFloor
	}
	if tbl == nil {
		return p
	}
	p.locks = tbl.Locks
	for l := range p.locks {
		seed := ^uint64(0)
		if p.hint(int64(l)) == HintConflicting {
			seed = 0
		}
		hist := p.locks[l].SpecHist
		for i := range hist {
			hist[i] = seed
		}
	}
	return p
}

// newThreadPolicy is a thread's policy state before its first instruction.
func newThreadPolicy(tid int) threadPolicy {
	return threadPolicy{tid: tid, threadHist: ^uint64(0)}
}

// hint returns the static prior for lock l; HintNone when no hint table was
// configured or l is out of its range.
func (p *policy) hint(l int64) SpecHint {
	if l >= 0 && l < int64(len(p.hints)) {
		return p.hints[l]
	}
	return HintNone
}

// disjoint reports a statically Disjoint lock: it always speculates, and
// validation skips its conflict checks (DESIGN.md §5e has the soundness
// argument).
func (p *policy) disjoint(l int64) bool { return p.hint(l) == HintDisjoint }

// speculate is the adaptive decision (§3.4): speculate on l while the
// thread's history for it is at the threshold. Only runs push outcomes, so a
// history below it stays there unless a run that logged l anyway (nested under
// a lock the thread still speculates on) commits: a stand-down is final, and
// the thread never retries l (DESIGN.md §4d). The noSpecNext progress
// guarantee is the caller's, checked first, so a Disjoint prior cannot starve a
// reverted thread.
func (p *policy) speculate(tp *threadPolicy, l int64) bool {
	return p.disjoint(l) || successRatePermille(p.hist(tp, l)) >= specThresholdPermille
}

// hist is the thread's speculation history for l.
func (p *policy) hist(tp *threadPolicy, l int64) uint64 {
	if p.perLock {
		return p.locks[l].SpecHist[tp.tid]
	}
	return tp.threadHist
}

// push shifts outcome ok into the thread's history for l.
func (p *policy) push(tp *threadPolicy, l int64, ok bool) {
	if p.perLock {
		h := &p.locks[l].SpecHist[tp.tid]
		*h = pushOutcome(*h, ok)
		return
	}
	tp.threadHist = pushOutcome(tp.threadHist, ok)
}

// runLimit is how many critical sections the thread's run may span: the
// floor, or runCeiling once the thread's last 64 runs all committed. One
// revert puts it back at the floor for 64 runs.
func (p *policy) runLimit(tp *threadPolicy) int {
	if tp.runHist == ^uint64(0) && p.coarsen {
		return runCeiling
	}
	return p.floor
}

// runEnded records a run's outcome: in the thread's run history, and in the
// history of every lock it logged (the thread's one history without per-lock
// statistics). A run longer than the floor counts as extended.
func (p *policy) runEnded(tp *threadPolicy, log []lockRec, runCS int, ok bool) {
	tp.runHist = pushOutcome(tp.runHist, ok)
	if p.stats != nil && runCS > p.floor {
		p.stats.ExtendedRuns.Add(1)
	}
	if !p.perLock {
		tp.threadHist = pushOutcome(tp.threadHist, ok)
		return
	}
	for _, r := range log {
		p.push(tp, r.lock, ok)
	}
}

// lockIntact is conflict detection for one lock (§3.2), validate's predicate:
// a run that logged st (exclusively if write) on heap base base is still valid
// iff st is not held against it and no section that stored under it committed
// past the base.
func (p *policy) lockIntact(st *detsync.Lock, write bool, base int64) bool {
	if st.Owner != 0 || write && st.Readers != 0 {
		return false // held exclusively, or our write meets live readers
	}
	return st.LastCommitSeq <= base
}

// The history format: a 64-bit shift register of outcomes, newest at bit 0.

// pushOutcome shifts outcome (1 = success) into history word h.
func pushOutcome(h uint64, success bool) uint64 {
	h <<= 1
	if success {
		h |= 1
	}
	return h
}

// successRatePermille is the success rate of history word h in thousandths.
func successRatePermille(h uint64) int {
	return bits.OnesCount64(h) * 1000 / 64
}
