package dlc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pendingTokens counts grant tokens sitting unconsumed in the wake channels.
func pendingTokens(a *Arbiter) int {
	n := 0
	for _, c := range a.wake {
		n += len(c)
	}
	return n
}

// TestHandOffStorm checks the baton-passing protocol's token accounting under
// a turn storm at every scale the fuzzers run, on one, two and four Ps: a
// token is sent only with a grant and consumed by exactly the WaitTurn it
// granted, so wakes never exceed grants, the turn is never held twice, and no
// token is left behind once every thread has exited.
func TestHandOffStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{4, 64, 256} {
			t.Run(fmt.Sprintf("P%d/t%d", procs, n), func(t *testing.T) {
				rounds := 2000 / n
				a := New(n)
				var inTurn atomic.Int32
				var wg sync.WaitGroup
				for tid := 0; tid < n; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							a.Tick(tid, int64(1+(tid*7+r)%5))
							a.WaitTurn(tid)
							if inTurn.Add(1) != 1 {
								t.Errorf("thread %d round %d: the turn is held twice", tid, r)
							}
							if st := a.Status(tid); st != StatusTurn {
								t.Errorf("thread %d round %d: returned from WaitTurn in status %v", tid, r, st)
							}
							inTurn.Add(-1)
							a.ReleaseTurn(tid, int64(1+tid%3))
						}
						a.Exit(tid)
					}(tid)
				}
				wg.Wait()
				grants := int64(n * rounds)
				if st := a.Stats(); st.Wakes > grants {
					t.Errorf("%d wakes for %d grants: a token was sent without a grant", st.Wakes, grants)
				}
				if p := pendingTokens(a); p != 0 {
					t.Errorf("%d token(s) left in the wake channels after the last exit", p)
				}
			})
		}
	}
}

// TestHandOffToUnparkedWaiter: a thread that parked, was unparked and then
// waits for the turn is granted by the releasing thread with exactly one
// token — the unpark itself (made while the waker holds the turn) must not
// wake it, and nothing is left to drain afterwards.
func TestHandOffToUnparkedWaiter(t *testing.T) {
	a := New(2)
	a.WaitTurn(0)
	a.Park(0)
	a.WaitTurn(1) // thread 0 is parked, so thread 1 grants itself
	a.Unpark(0, 10)
	granted := make(chan struct{})
	go func() {
		a.WaitTurn(0) // key (10, 0) behind the holder's (0, 1): registers and sleeps
		close(granted)
	}()
	waitStatus(t, a, 0, StatusWaiting)
	before := a.Stats().Wakes
	a.ReleaseTurn(1, 20) // moves thread 1 past the waiter: the release hands the turn off
	<-granted
	if got := a.Stats().Wakes - before; got != 1 {
		t.Fatalf("%d wakes to grant the unparked waiter, want exactly 1", got)
	}
	if st := a.Status(0); st != StatusTurn {
		t.Fatalf("granted waiter has status %v, want turn", st)
	}
	if p := pendingTokens(a); p != 0 {
		t.Fatalf("%d stale token(s) after the grant", p)
	}
	a.ReleaseTurn(0, 1)
}

// TestHandOffThenDeadlock: Park hands the turn to a sleeping waiter before it
// checks for deadlock — the waiter is live until it parks in turn, and only
// then is every thread parked and the handler due, exactly once.
func TestHandOffThenDeadlock(t *testing.T) {
	a := New(2)
	fired := 0
	a.SetDeadlockHandler(func() { fired++ })
	a.Tick(1, 5)
	a.WaitTurn(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.WaitTurn(1) // blocked behind the holder; granted by its Park
		a.Park(1)
	}()
	waitStatus(t, a, 1, StatusWaiting)
	a.Park(0)
	<-done
	if fired != 1 {
		t.Fatalf("deadlock handler fired %d times after both threads parked, want 1", fired)
	}
	if p := pendingTokens(a); p != 0 {
		t.Fatalf("%d stale token(s) after the hand-off", p)
	}
}
