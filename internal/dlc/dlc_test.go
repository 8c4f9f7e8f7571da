package dlc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTurnOrderFollowsClock checks that turns are granted in (DLC, tid)
// order: three threads request turns with distinct clocks and must be
// admitted lowest-clock first.
func TestTurnOrderFollowsClock(t *testing.T) {
	a := New(3)
	a.Tick(0, 30)
	a.Tick(1, 10)
	a.Tick(2, 20)

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for tid := 0; tid < 3; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			a.WaitTurn(tid)
			mu.Lock()
			order = append(order, tid)
			mu.Unlock()
			a.ReleaseTurn(tid, 100) // push clock past the others
		}(tid)
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i, tid := range want {
		if order[i] != tid {
			t.Fatalf("turn order = %v, want %v", order, want)
		}
	}
}

// TestTieBreakByThreadID checks that equal clocks admit the lower thread ID
// first.
func TestTieBreakByThreadID(t *testing.T) {
	a := New(2)
	// Both at DLC 0. Thread 1 requests first, but thread 0 must win.
	got0 := make(chan struct{})
	go func() {
		a.WaitTurn(1)
		close(got0)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-got0:
		t.Fatal("thread 1 got the turn while thread 0 (same DLC, lower tid) was runnable")
	default:
	}
	a.WaitTurn(0)
	a.ReleaseTurn(0, 5)
	<-got0 // now thread 1 proceeds
	a.ReleaseTurn(1, 5)
}

// TestRunningThreadBlocksWaiter checks that a running thread with a lower
// clock blocks a waiter until its clock passes the waiter's.
func TestRunningThreadBlocksWaiter(t *testing.T) {
	a := New(2)   // thread 0 runs at clock 0
	a.Tick(1, 50) // will wait

	granted := make(chan struct{})
	go func() {
		a.WaitTurn(1)
		close(granted)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-granted:
		t.Fatal("waiter admitted while a running thread had a lower clock")
	default:
	}
	// Tick thread 0 past the waiter: grants the turn.
	for i := 0; i < 6; i++ {
		a.Tick(0, 10)
	}
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not admitted after the running thread's clock passed it")
	}
	a.ReleaseTurn(1, 1)
}

// TestParkedThreadExcluded checks that parked threads do not block waiters.
func TestParkedThreadExcluded(t *testing.T) {
	a := New(2)
	a.Tick(1, 100)
	a.WaitTurn(0)
	a.Park(0) // thread 0 parks at its turn with the lower clock
	done := make(chan struct{})
	go func() {
		a.WaitTurn(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked thread still blocked the waiter")
	}
	a.ReleaseTurn(1, 1)
	a.Unpark(0, 200)
	if got := a.DLC(0); got != 200 {
		t.Fatalf("DLC after Unpark = %d, want 200", got)
	}
	if a.Status(0) != StatusRunning {
		t.Fatalf("status after Unpark = %v, want running", a.Status(0))
	}
}

// TestExitedThreadExcluded checks that exited threads do not block waiters.
func TestExitedThreadExcluded(t *testing.T) {
	a := New(2)
	a.Tick(1, 100)
	a.Exit(0)
	done := make(chan struct{})
	go func() {
		a.WaitTurn(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("exited thread still blocked the waiter")
	}
}

// TestTurnMutualExclusion hammers the arbiter with concurrent turn takers
// and checks that at most one thread holds the turn at a time.
func TestTurnMutualExclusion(t *testing.T) {
	const n = 8
	const rounds = 200
	a := New(n)
	var inTurn atomic.Int32
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a.WaitTurn(tid)
				if inTurn.Add(1) != 1 {
					t.Errorf("two threads hold the turn simultaneously")
				}
				inTurn.Add(-1)
				a.ReleaseTurn(tid, 3)
				a.Tick(tid, 2)
			}
			a.Exit(tid)
		}(tid)
	}
	wg.Wait()
}

// TestDeterministicGrantSequence runs the same concurrent turn-taking
// schedule twice and checks the grant order is identical across runs: grants
// follow (DLC, tid), and DLC evolution is fixed by the protocol.
func TestDeterministicGrantSequence(t *testing.T) {
	runOnce := func() []int {
		const n = 4
		const rounds = 50
		a := New(n)
		var mu sync.Mutex
		var order []int
		var wg sync.WaitGroup
		for tid := 0; tid < n; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// Distinct per-thread tick patterns.
					a.Tick(tid, int64(1+tid))
					a.WaitTurn(tid)
					mu.Lock()
					order = append(order, tid)
					mu.Unlock()
					a.ReleaseTurn(tid, 2)
				}
				a.Exit(tid)
			}(tid)
		}
		wg.Wait()
		return order
	}
	first, second := runOnce(), runOnce()
	if len(first) != len(second) {
		t.Fatalf("grant counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("grant order diverges at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestNondetArbiterSerializes checks the nondeterministic arbiter still
// provides mutual exclusion.
func TestNondetArbiterSerializes(t *testing.T) {
	const n = 8
	a := NewNondet(n)
	if !a.Nondet() {
		t.Fatal("NewNondet returned a deterministic arbiter")
	}
	var inTurn atomic.Int32
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				a.WaitTurn(tid)
				if inTurn.Add(1) != 1 {
					t.Errorf("two threads hold the nondet turn simultaneously")
				}
				inTurn.Add(-1)
				a.ReleaseTurn(tid, 1)
			}
		}(tid)
	}
	wg.Wait()
}

// TestTickIsCheapWithoutWaiters checks Tick does not require the mutex when
// nobody waits (it must not deadlock or panic; we just exercise the path).
func TestTickIsCheapWithoutWaiters(t *testing.T) {
	a := New(1)
	for i := 0; i < 1000; i++ {
		a.Tick(0, 1)
	}
	if got := a.DLC(0); got != 1000 {
		t.Fatalf("DLC = %d, want 1000", got)
	}
}

// TestDeadlockDetection: when every non-exited thread parks, the deadlock
// handler fires — the repeatable deadlock broken ad-hoc synchronization
// produces under determinism.
func TestDeadlockDetection(t *testing.T) {
	a := New(3)
	fired := 0
	a.SetDeadlockHandler(func() { fired++ })
	a.Exit(2)
	a.WaitTurn(0)
	a.Park(0)
	if fired != 0 {
		t.Fatal("deadlock reported while a thread was still runnable")
	}
	a.WaitTurn(1)
	a.Park(1)
	if fired != 1 {
		t.Fatalf("deadlock handler fired %d times, want 1", fired)
	}
}

// TestNoDeadlockWhenAllExit: clean termination is not a deadlock.
func TestNoDeadlockWhenAllExit(t *testing.T) {
	a := New(2)
	a.SetDeadlockHandler(func() { t.Fatal("deadlock reported on clean exit") })
	a.Exit(0)
	a.Exit(1)
}
