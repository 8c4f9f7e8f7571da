package core

import (
	"math/bits"

	"lazydet/internal/detsync"
	"lazydet/internal/mempipe"
	"lazydet/internal/stats"
)

// This file is the speculation policy (paper §3.4; DESIGN.md §4, §4d, §5e,
// §5f): every history, probe and threshold that decides whether a thread
// speculates on a lock, how many critical sections its run may span, and
// whether a release publishes or defers. The engine asks at its existing call
// sites; no other file reads or writes a history word. Every transition runs
// at the acting thread's turn and reads only state mutated at turns, so every
// decision is a function of the deterministic schedule (DESIGN.md §4 tables
// the transitions).

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
	// maxElideChain bounds how many consecutive publications one thread may
	// defer. The retained dirty set (and with it the stage-merge and
	// speculation-snapshot cost) grows with the chain, so an unbounded chain
	// would turn elision's per-release win into quadratic work on lock-hot
	// loops.
	maxElideChain = 64
	// elideRecentWindow is how many of the newest survival outcomes the
	// elision decision looks at: 16 engage after 8 hits, early enough to
	// capture most of a reacquire phase, where the full 64 would need dozens.
	elideRecentWindow = 16
	// elideEngagePermille is the recent survival rate at which real staging
	// engages — far below specThresholdPermille, because a speculation miss
	// costs a revert while an elision miss wastes only a delta copy and a hit
	// saves a physical commit. It also keeps phase-structured workloads
	// engaged: a burst of k publications scores (k-1)/k.
	elideEngagePermille = 500
)

// policy is the engine-wide half: the static hints, the workload-wide elision
// history, and handles on the storage of the per-lock histories (the lock
// table's SpecHist and ElideHist, which only this file touches).
type policy struct {
	on, coarsen, perLock bool
	floor                int // run limit until earned: runFloor, 1 without coarsening
	hints                []SpecHint
	locks                []detsync.Lock
	pipe                 mempipe.Pipeline // the heap sequence virtual elision outcomes compare
	stats                *stats.Spec      // ExtendedRuns; nil disables

	// elideGlobal is the workload-wide elision survival history, fed by every
	// resolved outcome whatever its lock. Per-lock histories cannot learn on
	// dynamically addressed lock sets (ht's per-bucket locks see a handful of
	// releases each); a workload whose threads release in long uninterrupted
	// runs earns engagement here.
	elideGlobal uint64
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
	probe      specProbe
	pending    pendingElide
	// elideChain counts consecutive deferred publications since the last
	// physical commit, bounded by maxElideChain.
	elideChain int
}

// specProbe is a run not taken (convAcquired): what a run begun at an
// outermost conventional acquisition of lock would have validated against,
// and how many more outermost acquisitions it stays open for (0: no probe).
type specProbe struct {
	write       bool
	lock        int64
	begin, base int64
	left        int
}

// pendingElide is the thread's unresolved elision outcome: a real stage (a
// deferred publication) or a virtual one (an eager publication that recorded
// the heap sequence). There is at most one, because every Release resolves it
// before it sets the next.
type pendingElide struct {
	kind elideKind
	lock int64
	seq  int64 // virtualElide: the heap sequence just after the publication
}

type elideKind uint8

const (
	noElide elideKind = iota
	stagedElide
	virtualElide
)

// newPolicy seeds the histories. The per-lock speculation histories start
// optimistic (§3.4), all-success, except a Conflicting-hinted lock's, which
// starts all-failure: conventional until virtual probes earn speculation back,
// instead of paying the warm-up reverts. Elision histories start zero —
// elision is earned through virtual outcomes, never paid for up front.
func newPolicy(cfg Config, tbl *detsync.Table, pipe mempipe.Pipeline, spec *stats.Spec) policy {
	p := policy{
		on: cfg.Speculation, coarsen: !cfg.Spec.NoCoarsening, perLock: !cfg.Spec.NoPerLockStats,
		floor: 1, hints: cfg.Hints, pipe: pipe, stats: spec,
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

// disjoint reports a statically Disjoint lock: it always speculates, always
// elides, and validation skips its conflict checks (DESIGN.md §5e has the
// soundness argument).
func (p *policy) disjoint(l int64) bool { return p.hint(l) == HintDisjoint }

// speculate is the adaptive decision (§3.4): speculate on l while the
// thread's history for it is at the threshold. Below it the history fills
// from virtual probes (convAcquired), not from real retries. The noSpecNext
// progress guarantee is the caller's, checked first, so a Disjoint prior
// cannot starve a reverted thread.
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

// convAcquired is the virtual probe (DESIGN.md §4d), the policy's evidence
// below the threshold, at no cost: a conventional acquisition takes the turn
// anyway, and whether a run begun there would have validated is what
// lockIntact asks of the BEGIN (my, the thread's clock) and heap base the
// acquisition defines. Called with the turn held, l free and not yet taken.
// Like a real run, a virtual one stays open for the floor's worth of
// outermost acquisitions (it prices the runs a stood-down thread would begin
// with, not the ones it could earn), which begin nothing; it resolves into its
// lock's history at the last of them, or sooner if the thread comes back to
// the lock. Then l arms one, unless l speculates: a conventional acquisition
// there is the post-revert progress guarantee and proves nothing.
func (p *policy) convAcquired(tp *threadPolicy, depth int, l int64, write bool, my int64) {
	if !p.on || depth > 0 {
		return
	}
	if pr := &tp.probe; pr.left > 0 {
		if pr.left--; pr.left > 0 && pr.lock != l {
			return
		}
		p.push(tp, pr.lock, p.lockIntact(&p.locks[pr.lock], pr.write, pr.begin, pr.base))
	}
	if !p.speculate(tp, l) {
		tp.probe = specProbe{write: write, lock: l, begin: my, base: p.locks[l].LastCommitSeq, left: p.floor}
	}
}

// convReleased moves an open probe's base past the thread's own release of l
// (seq, the lock's commit sequence after it): a virtual run's own section is
// not a conflict.
func (p *policy) convReleased(tp *threadPolicy, l, seq int64) {
	if tp.probe.left > 0 && tp.probe.lock == l {
		tp.probe.base = seq
	}
}

// lockIntact is conflict detection for one lock (§3.2), shared by validate
// and the virtual probes so the two cannot drift: a run that logged st
// (exclusively if write) at clock begin on heap base base is still valid iff
// st is not held against it and nobody acquired or committed it since.
func (p *policy) lockIntact(st *detsync.Lock, write bool, begin, base int64) bool {
	if st.Owner != 0 || write && st.Readers != 0 {
		return false // held exclusively, or our write meets live readers
	}
	return st.LastAcquireDLC <= begin && st.LastCommitSeq <= base
}

// mayDefer resolves the thread's pending elision outcome at visibility point
// pt (before the point is performed) and, at a Release of l, decides whether
// the publication may be deferred: when the pending stage survived to merge
// here (the payoff the histories only predict), for a Disjoint lock, or when
// the recent survival rate — of l, or workload-wide for locks too cold to
// predict anything — says a stage would survive; never past maxElideChain.
//
// A false costs nothing. A stage survives exactly until any other publication
// advances the heap sequence, so whether a deferral would have survived is
// observable without deferring: the eager release records the sequence (a
// virtual outcome, published) and the next visibility point compares. The
// histories fill at full release rate while stage copies, retained frames and
// re-base rebuilds stay off, and workloads whose stages could never survive
// pay no elision overhead at all.
func (p *policy) mayDefer(tp *threadPolicy, pt mempipe.Point, l int64, mem mempipe.Thread) bool {
	survived := p.resolveElide(tp, pt, mem)
	if pt != mempipe.Release || tp.elideChain >= maxElideChain {
		return false
	}
	return survived || p.disjoint(l) ||
		recentRatePermille(p.locks[l].ElideHist, elideRecentWindow) >= elideEngagePermille ||
		recentRatePermille(p.elideGlobal, elideRecentWindow) >= elideEngagePermille
}

// resolveElide folds the pending outcome into its lock's history and the
// workload-wide one, and reports whether a real stage is still outstanding.
// A deferred publication pays exactly when it survives to the owner's next
// Release, where the sections merge into one commit: only there is an
// unflushed stage (or, virtually, an unmoved heap sequence) a hit. A flushed
// stage or moved sequence is a miss — the state was demanded cross-thread, or
// committed by the owner's own publication first — and so is surviving to a
// settling point (Signal, Park, Upgrade), where the stage flushes as its own
// commit. An Acquire leaves an unflushed stage pending (this section's
// release may yet extend the chain) and a virtual outcome too (the thread's
// own publish there makes the eventual outcome a miss by itself).
func (p *policy) resolveElide(tp *threadPolicy, pt mempipe.Point, mem mempipe.Thread) (survived bool) {
	pe := &tp.pending
	var hit bool
	switch pe.kind {
	case noElide:
		return false
	case stagedElide:
		flushed, dropped := mem.Deferred()
		if pt == mempipe.Acquire && !flushed {
			return true
		}
		if dropped {
			tp.elideChain = 0
		}
		survived = !flushed
		hit = survived && pt == mempipe.Release
	case virtualElide:
		if pt == mempipe.Acquire {
			return false
		}
		hit = pt == mempipe.Release && p.pipe.Seq() == pe.seq
	}
	pe.kind = noElide
	st := &p.locks[pe.lock]
	st.ElideHist = pushOutcome(st.ElideHist, hit)
	p.elideGlobal = pushOutcome(p.elideGlobal, hit)
	return survived
}

// published records what visibility point pt did with the thread's window
// (mayDefer was the decision, out the outcome): a stage becomes the pending
// outcome and extends the chain, a physical commit or a settling point ends
// the chain, and an eager Release starts a virtual outcome in a stage's place.
func (p *policy) published(tp *threadPolicy, pt mempipe.Point, l int64, mayDefer bool, out mempipe.Outcome) {
	switch {
	case out.Staged:
		tp.pending = pendingElide{kind: stagedElide, lock: l}
		tp.elideChain++
	case out.Committed, pt == mempipe.Signal, pt == mempipe.Park:
		tp.elideChain = 0
	}
	if pt == mempipe.Release && !mayDefer {
		tp.pending = pendingElide{kind: virtualElide, lock: l, seq: p.pipe.Seq()}
	}
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

// recentRatePermille is the success rate over only the newest w outcomes of
// h: a short window reacts in w pushes instead of 64.
func recentRatePermille(h uint64, w int) int {
	return bits.OnesCount64(h&(1<<w-1)) * 1000 / w
}
