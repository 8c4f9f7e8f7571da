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
// probe_test.go and runlimit_test.go drive the same rules end to end.

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

// acquire is an outermost conventional acquisition of l by thread tid, l
// free.
func (r *polRig) acquire(tid int, l int64) {
	r.pol.convAcquired(&r.th[tid], 0, l, true)
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

// TestLockIntact tables the conflict predicate validate and the probes share.
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
// stands down at the tenth failed run and speculates again after 55
// consecutive probe hits, the first rate at or above 850 permille; the
// histories of other threads and locks do not move.
func TestPolicyStandDownAndReengagement(t *testing.T) {
	for _, perLock := range []bool{true, false} {
		cfg := noCoarsening() // a probe lives one acquisition
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
		r.acquire(0, 0) // arms a probe on 0
		hits := 0
		for !r.pol.speculate(tp, 0) {
			if hits++; hits > 64 {
				t.Fatalf("perLock=%v: 64 probe hits did not re-engage", perLock)
			}
			r.acquire(0, 0) // resolves the probe as a hit, arms the next
		}
		if hits != 55 {
			t.Errorf("perLock=%v: re-engaged after %d probe hits, want 55", perLock, hits)
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
	// Conflicting arms a probe at its first conventional acquisition; a
	// Disjoint lock never does.
	r.acquire(1, disjoint)
	if r.th[1].probe.left != 0 {
		t.Errorf("a Disjoint acquisition armed %+v", r.th[1].probe)
	}
	r.acquire(1, conflicting)
	if p := r.th[1].probe; p.lock != conflicting || p.left != runFloor {
		t.Errorf("a Conflicting acquisition armed %+v", p)
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

// TestPolicyProbe: a probe arms at an outermost conventional acquisition of a
// stood-down lock, stays open for the floor's acquisitions or until the thread
// comes back to the lock, resolves through lockIntact, and is re-based by the
// thread's own release.
func TestPolicyProbe(t *testing.T) {
	const A, B, C = 0, 1, 2
	stoodDown := func(cfg Config) *polRig {
		r := newPolRig(cfg, 2, 3)
		for l := range r.tbl.Locks {
			r.tbl.Locks[l].SpecHist[0] = marker
		}
		return r
	}

	t.Run("arm", func(t *testing.T) {
		r := stoodDown(lazyCfg())
		r.tbl.Locks[A].LastCommitSeq = 5
		r.pol.convAcquired(&r.th[0], 0, A, false)
		want := specProbe{write: false, lock: A, base: 5, left: runFloor}
		if got := r.th[0].probe; got != want {
			t.Fatalf("armed %+v, want %+v", got, want)
		}
	})

	t.Run("what does not arm", func(t *testing.T) {
		for _, c := range []struct {
			name  string
			cfg   Config
			depth int
			l     int64
		}{
			{"nested", lazyCfg(), 1, A},
			{"speculating lock (the progress guarantee)", lazyCfg(), 0, B},
			{"no speculation (Consequence)", Config{Mode: ModeStrong}, 0, A},
		} {
			r := newPolRig(c.cfg, 1, 3)
			if c.cfg.Speculation {
				r.tbl.Locks[A].SpecHist[0] = marker
			}
			r.pol.convAcquired(&r.th[0], c.depth, c.l, true)
			if p := r.th[0].probe; p.left != 0 {
				t.Errorf("%s: armed %+v", c.name, p)
			}
		}
	})

	t.Run("resolve", func(t *testing.T) {
		for _, c := range []struct {
			name    string
			foreign func(st *detsync.Lock)
			want    uint64
		}{
			{"untouched", func(*detsync.Lock) {}, marker<<1 | 1},
			{"foreign acquisition by a section that stored", func(st *detsync.Lock) { st.LastCommitSeq = 9 }, marker << 1},
			{"foreign acquisition by a read-only section", func(*detsync.Lock) {}, marker<<1 | 1},
			{"foreign commit", func(st *detsync.Lock) { st.LastCommitSeq = 9 }, marker << 1},
			{"live owner", func(st *detsync.Lock) { st.Owner = 2 }, marker << 1},
		} {
			r := stoodDown(noCoarsening())
			r.acquire(0, A)
			c.foreign(&r.tbl.Locks[A])
			r.acquire(0, B)
			if got := r.tbl.Locks[A].SpecHist[0]; got != c.want {
				t.Errorf("%s: history %#x, want %#x", c.name, got, c.want)
			}
			if p := r.th[0].probe; p.lock != B || p.left != 1 {
				t.Errorf("%s: resolving acquisition armed %+v, want a probe on B", c.name, p)
			}
		}
	})

	t.Run("scope", func(t *testing.T) {
		r := stoodDown(lazyCfg())
		r.acquire(0, A)
		for i := 1; i < runFloor; i++ {
			r.acquire(0, B)
			if got := r.tbl.Locks[A].SpecHist[0]; got != marker || r.th[0].probe.lock != A {
				t.Fatalf("acquisition %d inside A's virtual run: history %#x, probe %+v", i, got, r.th[0].probe)
			}
		}
		r.acquire(0, C)
		if got := r.tbl.Locks[A].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of A = %#x after %d acquisitions, want a hit", got, runFloor)
		}
		if got := r.tbl.Locks[B].SpecHist[0]; got != marker {
			t.Fatalf("B, acquired inside the virtual run, took an outcome: %#x", got)
		}
		r.acquire(0, B)
		r.acquire(0, C) // back at C: resolves at once
		if got := r.tbl.Locks[C].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of C = %#x on re-acquisition, want a hit", got)
		}
	})

	t.Run("own release re-bases, a foreign lock's does not", func(t *testing.T) {
		r := stoodDown(noCoarsening())
		r.acquire(0, A)
		r.tbl.Locks[A].LastCommitSeq = 3 // the thread's own release of A
		r.pol.convReleased(&r.th[0], B, 7)
		if got := r.th[0].probe.base; got != 0 {
			t.Fatalf("a release of B re-based the probe on A to %d", got)
		}
		r.pol.convReleased(&r.th[0], A, 3)
		r.acquire(0, B)
		if got := r.tbl.Locks[A].SpecHist[0]; got != marker<<1|1 {
			t.Fatalf("history of A = %#x: the thread's own release counted as a conflict", got)
		}
	})
}
