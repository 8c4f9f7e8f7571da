package dlc

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitStatus polls until thread tid reaches status st (statuses are atomics,
// so polling is race-free) or the deadline passes.
func waitStatus(t *testing.T, a *Arbiter, tid int, st Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Status(tid) != st {
		if time.Now().After(deadline) {
			t.Fatalf("thread %d stuck in status %v, want %v", tid, a.Status(tid), st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEqualDLCWaitersWakeInTidOrder pins the equal-DLC half of the
// minWaiter-cache audit: the cache stores only a DLC, dropping the tid half
// of the key, so when several waiters share the minimum clock the cache
// cannot say which one to admit. The invariant that makes this safe is that
// notification and grant always elect the lowest tid among equal-DLC
// waiters (the flat scan by in-order iteration, the tree by its (DLC, tid)
// match), and Tick's bracket test [old, new] ∋ cached-DLC covers both the
// equality tick (admitting a lower-tid waiter) and the strict crossing
// (admitting a higher-tid one).
func TestEqualDLCWaitersWakeInTidOrder(t *testing.T) {
	a := New(3)
	a.Tick(0, 50)
	a.Tick(1, 50) // two waiters at the same clock; thread 2 runs at 0
	grants := make(chan int, 2)
	for _, tid := range []int{0, 1} {
		go func(tid int) {
			a.WaitTurn(tid)
			grants <- tid
			a.ReleaseTurn(tid, 10)
		}(tid)
	}
	waitStatus(t, a, 0, StatusWaiting)
	waitStatus(t, a, 1, StatusWaiting)
	// The runner reaches the waiters' clock exactly: key (50, 2)
	// still trails waiter 0's (50, 0) and waiter 1's (50, 1), so
	// both must eventually be admitted, lowest tid first.
	a.Tick(2, 50)
	var order []int
	for len(order) < 2 {
		select {
		case tid := <-grants:
			order = append(order, tid)
		case <-time.After(5 * time.Second):
			t.Fatalf("granted %v, then no wakeup: missed equal-DLC wake", order)
		}
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("equal-DLC waiters granted in order %v, want [0 1]", order)
	}
}

// TestTickWaiterRegistrationRace pins the tick-past-waiter half of the
// minWaiter-cache audit: Tick loads the cache outside a.mu, racing with a
// registering waiter. The protocol is safe because it is the store-buffer
// litmus under Go's sequentially consistent atomics — Tick's clock advance
// precedes its cache load, registration's cache store precedes its read of
// the ticker's clock, so at least one side observes the other: either the
// ticker sees the waiter and wakes it, or the waiter sees the advanced
// clock and never blocks behind it. A missed wakeup here would hang the
// grant forever; the loop hunts for one across many live interleavings.
func TestTickWaiterRegistrationRace(t *testing.T) {
	for round := 0; round < 300; round++ {
		a := New(2)
		a.Tick(1, 10)
		granted := make(chan struct{})
		go func() {
			a.WaitTurn(1) // registers at clock 10
			close(granted)
		}()
		// Concurrently jump from 0 past the waiter in one batch:
		// only this crossing tick's bracket test can notify, so a
		// lost notification cannot be papered over by later ticks.
		a.Tick(0, 25)
		select {
		case <-granted:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: waiter never admitted after the runner ticked past it (missed wakeup)", round)
		}
		a.ReleaseTurn(1, 1)
	}
}

// TestStatsShape checks the cost counters: the arbiter reports its match
// depth and counts wakes and grant work.
func TestStatsShape(t *testing.T) {
	if got := New(5).Stats().Depth; got != 3 { // 5 threads -> 8 leaves -> depth 3
		t.Fatalf("tree depth = %d, want 3", got)
	}
	if got := New(1).Stats().Depth; got != 0 {
		t.Fatalf("single-thread tree depth = %d, want 0", got)
	}
	a := New(2)
	done := make(chan struct{})
	go func() {
		a.WaitTurn(1)
		a.ReleaseTurn(1, 1)
		close(done)
	}()
	waitStatus(t, a, 1, StatusWaiting)
	for i := 0; i < 5; i++ {
		a.Tick(0, 1)
	}
	<-done
	st := a.Stats()
	if st.Wakes == 0 {
		t.Fatal("no wakes counted across a blocked grant")
	}
	if st.GrantWork == 0 {
		t.Fatal("no grant work counted across a blocked grant")
	}
}

// TestAuditTreeCleanDuringRun runs a multithreaded turn storm, auditing the
// tournament state at every granted turn.
func TestAuditTreeCleanDuringRun(t *testing.T) {
	const n = 16
	const rounds = 50
	a := New(n)
	rng := rand.New(rand.NewSource(1))
	ticks := make([][]int64, n)
	for i := range ticks {
		for k := 0; k < rounds; k++ {
			ticks[i] = append(ticks[i], rng.Int63n(8)+1)
		}
	}
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a.Tick(tid, ticks[tid][r])
				a.WaitTurn(tid)
				if err := a.AuditTree(); err != nil {
					t.Errorf("AuditTree at thread %d round %d: %v", tid, r, err)
				}
				if err := a.AuditTurn(tid); err != nil {
					t.Errorf("AuditTurn at thread %d round %d: %v", tid, r, err)
				}
				a.ReleaseTurn(tid, 2)
			}
			a.Exit(tid)
		}(tid)
	}
	wg.Wait()
}

// TestAuditTreeDetectsCorruption corrupts tournament state directly and
// checks the audit reports it.
func TestAuditTreeDetectsCorruption(t *testing.T) {
	mkTurnHolder := func() *Arbiter {
		a := New(4)
		a.WaitTurn(0)
		return a
	}

	a := mkTurnHolder()
	a.mu.Lock()
	a.pub[2] = a.slots[2].dlc.Load() + 7 // published clock leading the true clock
	a.mu.Unlock()
	if err := a.AuditTree(); err == nil {
		t.Fatal("AuditTree accepted a published clock ahead of the true clock")
	}

	a = mkTurnHolder()
	a.mu.Lock()
	a.minTree[1] = a.minTree[2] // root no longer the match of its children... unless it already is
	if a.minTree[1] == a.match(a.minTree[2], a.minTree[3]) {
		a.minTree[1] = a.minTree[3]
	}
	a.mu.Unlock()
	if err := a.AuditTree(); err == nil {
		t.Fatal("AuditTree accepted an internal node that is not its children's match")
	}

	a = mkTurnHolder()
	a.mu.Lock()
	a.minTree[a.size+3] = -1 // eligible thread evicted from its leaf
	a.mu.Unlock()
	if err := a.AuditTree(); err == nil {
		t.Fatal("AuditTree accepted a missing leaf for an eligible thread")
	}
}

// TestIncrementalCountsMatchScan cross-checks the O(1) deadlock counts
// against AuditTurn's scan across a mix of transitions.
func TestIncrementalCountsMatchScan(t *testing.T) {
	a := New(6)
	for tid := 0; tid < 4; tid++ {
		a.WaitTurn(tid) // the lowest clock: every earlier thread moved past it
		a.ReleaseTurn(tid, 5)
	}
	for tid := 4; tid < 6; tid++ {
		a.WaitTurn(tid) // still at 0, below threads 0-3
		a.Park(tid)
	}
	a.Exit(3)
	a.Unpark(4, 9)
	a.WaitTurn(0)
	if err := a.AuditTurn(0); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	live, parked := a.live, a.parked
	a.mu.Unlock()
	if live != 4 || parked != 1 { // threads 0,1,2,4 live; 5 parked; 3 exited
		t.Fatalf("counts (live %d, parked %d), want (4, 1)", live, parked)
	}
	a.ReleaseTurn(0, 1)
}
