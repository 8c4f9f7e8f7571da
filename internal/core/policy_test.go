package core

import (
	"testing"
	"testing/quick"

	"lazydet/internal/detsync"
	"lazydet/internal/stats"
)

// This file tests the speculation policy (policy.go) without an engine: a bare
// policy over a small lock table and thread policies. No arbiter, heap or VM;
// each transition is called directly, in the order the test states.
// standdown_test.go and runlimit_test.go drive the same rules end to end.

type polRig struct {
	tbl  *detsync.Table
	pol  policy
	th   []threadPolicy
	spec *stats.Spec
}

func newPolRig(cfg Config, threads, locks int) *polRig {
	r := &polRig{
		tbl:  detsync.NewTable(threads, locks, 0, 0, cfg.Speculation),
		spec: &stats.Spec{},
	}
	r.pol = newPolicy(cfg, r.tbl, r.spec)
	for tid := 0; tid < threads; tid++ {
		r.th = append(r.th, newThreadPolicy(tid))
	}
	return r
}

func TestSuccessRatePermille(t *testing.T) {
	for _, c := range []struct {
		hist uint64
		want int
	}{
		{^uint64(0), 1000},
		{0, 0},
		{1<<32 - 1, 500},
	} {
		if got := successRatePermille(c.hist); got != c.want {
			t.Errorf("successRatePermille(%x) = %d, want %d", c.hist, got, c.want)
		}
	}
}

func TestPushOutcome(t *testing.T) {
	h := uint64(0)
	for i, c := range []struct {
		ok   bool
		want uint64
	}{{true, 1}, {false, 2}, {true, 5}} {
		if h = pushOutcome(h, c.ok); h != c.want {
			t.Fatalf("push %d (%v): %x, want %x", i, c.ok, h, c.want)
		}
	}
}

// TestQuickHistoryConvergence: pushing k consecutive failures onto a full
// history lowers the rate monotonically, and 64 failures zero it.
func TestQuickHistoryConvergence(t *testing.T) {
	f := func(k uint8) bool {
		h := ^uint64(0)
		prev := 1000
		for i := 0; i < int(k%65); i++ {
			h = pushOutcome(h, false)
			rate := successRatePermille(h)
			if rate > prev {
				return false
			}
			prev = rate
		}
		return int(k%65) != 64 || successRatePermille(h) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdCrossing documents the adaptation speed: with the paper's
// 85 % threshold, ten failures in the 64-bit window disable speculation.
func TestThresholdCrossing(t *testing.T) {
	h := ^uint64(0)
	n := 0
	for successRatePermille(h) >= specThresholdPermille {
		h = pushOutcome(h, false)
		n++
	}
	if n != 10 {
		t.Fatalf("failures to cross the 85%% threshold = %d, want 10", n)
	}
}

// TestLockIntact tables validate's conflict predicate.
// A foreign section since the run's base that only read leaves the lock's
// state as it found it; only one that stored moves the commit sequence, and
// only that one conflicts.
func TestLockIntact(t *testing.T) {
	const base = 7
	for _, c := range []struct {
		name  string
		st    detsync.Lock
		write bool
		want  bool
	}{
		{"untouched", detsync.Lock{LastCommitSeq: base}, true, true},
		{"held exclusively", detsync.Lock{Owner: 2, LastCommitSeq: base}, false, false},
		{"writer meets live readers", detsync.Lock{Readers: 1}, true, false},
		{"reader meets live readers", detsync.Lock{Readers: 3}, false, true},
		{"acquired since BEGIN by a section that stored", detsync.Lock{LastCommitSeq: base + 1}, true, false},
		{"acquired since BEGIN by a read-only section", detsync.Lock{LastCommitSeq: base}, true, true},
		{"committed past the base", detsync.Lock{LastCommitSeq: base + 1}, false, false},
	} {
		var p policy
		if got := p.lockIntact(&c.st, c.write, base); got != c.want {
			t.Errorf("%s: lockIntact = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPolicyStandDownAndReengagement: an all-success (lock, thread) history
// stands down at the tenth failed run, and the histories of other threads and
// locks do not move. Only runs push outcomes, so a stood-down history climbs
// back only through committed runs that logged the lock anyway (nested under a
// lock the thread still speculates on): 55 of them, the first rate at or above
// 850 permille. A conventional acquisition has no policy call at all.
func TestPolicyStandDownAndReengagement(t *testing.T) {
	for _, perLock := range []bool{true, false} {
		cfg := noCoarsening()
		cfg.Spec.NoPerLockStats = !perLock
		r := newPolRig(cfg, 2, 2)
		tp := &r.th[0]
		log := []lockRec{{lock: 0, write: true}}
		for i := 1; i <= 10; i++ {
			r.pol.runEnded(tp, log, 1, false)
			if got, want := r.pol.speculate(tp, 0), i < 10; got != want {
				t.Fatalf("perLock=%v: speculate after %d failed runs = %v, want %v", perLock, i, got, want)
			}
		}
		if perLock && (!r.pol.speculate(&r.th[1], 0) || !r.pol.speculate(tp, 1)) {
			t.Fatalf("a failed run on (lock 0, thread 0) moved another thread's or lock's history")
		}
		commits := 0
		for !r.pol.speculate(tp, 0) {
			if commits++; commits > 64 {
				t.Fatalf("perLock=%v: 64 committed runs did not re-engage", perLock)
			}
			r.pol.runEnded(tp, log, 1, true)
		}
		if commits != 55 {
			t.Errorf("perLock=%v: re-engaged after %d committed runs, want 55", perLock, commits)
		}
		if got := r.pol.hist(tp, 0); successRatePermille(got) < specThresholdPermille || successRatePermille(got>>1) >= specThresholdPermille {
			t.Errorf("perLock=%v: history %#x does not sit at the threshold", perLock, got)
		}
	}
}

// TestPolicyPriors: the static hints seed and short-circuit the histories.
func TestPolicyPriors(t *testing.T) {
	const none, disjoint, conflicting, beyond = 0, 1, 2, 3
	cfg := lazyCfg()
	cfg.Hints = []SpecHint{HintNone, HintDisjoint, HintConflicting}
	r := newPolRig(cfg, 2, 4)
	for _, c := range []struct {
		name      string
		l         int64
		seed      uint64
		speculate bool
	}{
		{"none", none, ^uint64(0), true},
		{"disjoint", disjoint, ^uint64(0), true},
		{"conflicting", conflicting, 0, false},
		{"beyond the hint table", beyond, ^uint64(0), true},
	} {
		for tid := range r.th {
			if got := r.tbl.Locks[c.l].SpecHist[tid]; got != c.seed {
				t.Errorf("%s: thread %d's history seeded %#x, want %#x", c.name, tid, got, c.seed)
			}
		}
		if got := r.pol.speculate(&r.th[0], c.l); got != c.speculate {
			t.Errorf("%s: speculate = %v, want %v", c.name, got, c.speculate)
		}
		if got := r.pol.disjoint(c.l); got != (c.l == disjoint) {
			t.Errorf("%s: disjoint = %v", c.name, got)
		}
	}
	// Disjoint speculates however its histories read.
	for tid := range r.th {
		r.tbl.Locks[disjoint].SpecHist[tid] = 0
	}
	if !r.pol.speculate(&r.th[0], disjoint) {
		t.Error("a Disjoint lock with an all-failure history stood down")
	}
}

// TestPolicyRunLimit: the earned ceiling. A thread's first 63 committed runs
// leave it at the floor, the 64th earns 64 sections, one revert takes it back
// for the next 64, and without coarsening the limit is 1 whatever it earned.
func TestPolicyRunLimit(t *testing.T) {
	for _, c := range []struct {
		name     string
		coarsen  bool
		outcomes []int // runs in a row: positive commit, negative revert
		want     int
	}{
		{"fresh", true, nil, runFloor},
		{"63 commits", true, []int{63}, runFloor},
		{"64 commits", true, []int{64}, runCeiling},
		{"64 commits, then one revert", true, []int{64, -1}, runFloor},
		{"a revert, then 63 commits", true, []int{64, -1, 63}, runFloor},
		{"a revert, then 64 commits", true, []int{64, -1, 64}, runCeiling},
		{"no coarsening, fresh", false, nil, 1},
		{"no coarsening, 64 commits", false, []int{64}, 1},
	} {
		cfg := lazyCfg()
		cfg.Spec.NoCoarsening = !c.coarsen
		r := newPolRig(cfg, 1, 1)
		for _, n := range c.outcomes {
			ok := n > 0
			for i := 0; i < max(n, -n); i++ {
				r.pol.runEnded(&r.th[0], nil, 1, ok)
			}
		}
		if got := r.pol.runLimit(&r.th[0]); got != c.want {
			t.Errorf("%s: run limit %d, want %d", c.name, got, c.want)
		}
	}
	// A run past the floor is counted as extended, at any outcome.
	r := newPolRig(lazyCfg(), 1, 1)
	for _, n := range []int{runFloor, runFloor + 1, runCeiling} {
		r.pol.runEnded(&r.th[0], nil, n, n != runCeiling)
	}
	if got := r.spec.ExtendedRuns.Load(); got != 2 {
		t.Errorf("%d extended runs counted, want 2", got)
	}
}
