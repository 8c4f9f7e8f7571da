package dlc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The host model of the turn discipline: the next turn goes to the minimum
// (clock at arrival, tid) over the threads that are neither parked nor
// exited, found by a linear scan. It is the executable statement of what the
// tournament trees must elect, and it writes the scripts the live threads
// then follow, so every park has a later waker and no script can deadlock.

// step is one scripted turn of one thread: tick, take the turn, unpark the
// listed threads at the listed clocks, then end the turn.
type step struct {
	tick int64
	wake []wakeup
	end  int   // endRelease, endPark, endExit (exit holding the turn), endReleaseExit
	cost int64 // release cost
}

type wakeup struct {
	tid int
	dlc int64
}

const (
	endRelease = iota
	endPark
	endExit
	endReleaseExit
)

// buildScripts simulates n threads taking `rounds` turns each and returns
// their scripts, their initial clocks and the grant sequence the model
// admits.
func buildScripts(r *rand.Rand, n, rounds int) (scripts [][]step, start []int64, want []int) {
	scripts = make([][]step, n)
	start = make([]int64, n)
	clock := make([]int64, n) // clock at the thread's next turn request
	left := make([]int, n)
	parked := make([]bool, n)
	exited := make([]bool, n)
	arrive := func(i int, from int64) {
		t := 1 + r.Int63n(6)
		clock[i] = from + t
		scripts[i] = append(scripts[i], step{tick: t})
	}
	for i := range scripts {
		start[i] = r.Int63n(8)
		left[i] = rounds
		arrive(i, start[i])
	}
	for done := 0; done < n; {
		best, others := -1, 0
		for i := range clock {
			if parked[i] || exited[i] {
				continue
			}
			others++
			if best == -1 || clock[i] < clock[best] {
				best = i // ascending scan: ties keep the lower tid
			}
		}
		others--
		want = append(want, best)
		cur := &scripts[best][len(scripts[best])-1]
		left[best]--
		// Whoever may be the last to run wakes every parked thread first.
		if left[best] == 0 || others == 0 || r.Intn(3) == 0 {
			for p := range parked {
				if parked[p] {
					w := wakeup{p, clock[best] + r.Int63n(4)}
					cur.wake = append(cur.wake, w)
					parked[p] = false
					others++
					arrive(p, w.dlc)
				}
			}
		}
		switch {
		case left[best] == 0:
			cur.end = endExit + r.Intn(2)
			cur.cost = 1
			exited[best] = true
			done++
		case others > 0 && r.Intn(4) == 0:
			cur.end = endPark
			parked[best] = true
		default:
			cur.cost = 1 + r.Int63n(4)
			arrive(best, clock[best]+cur.cost)
		}
	}
	return scripts, start, want
}

// TestGrantOrderMatchesModel runs the model's scripts on the live arbiter
// under real goroutine scheduling, at the thread counts the fuzzers run: the
// grant sequence and the chain-hit count must be exactly the model's.
func TestGrantOrderMatchesModel(t *testing.T) {
	for _, n := range []int{4, 64, 256} {
		for seed := int64(1); seed <= int64(32/n+2); seed++ {
			t.Run(fmt.Sprintf("t%d/seed%d", n, seed), func(t *testing.T) {
				scripts, start, want := buildScripts(rand.New(rand.NewSource(seed)), n, 120/n+3)
				a := New(n)
				a.SetDeadlockHandler(func() {}) // only reachable after a mismatch aborted the scripts
				resume := make([]chan struct{}, n)
				for i := range resume {
					resume[i] = make(chan struct{}, 1)
					a.Tick(i, start[i])
				}
				abort := make(chan struct{})
				var got []int // appended under the turn
				var wg sync.WaitGroup
				for tid := 0; tid < n; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						for _, s := range scripts[tid] {
							a.Tick(tid, s.tick)
							a.WaitTurn(tid)
							select {
							case <-abort:
								a.Exit(tid)
								return
							default:
							}
							if i := len(got); i >= len(want) || want[i] != tid {
								t.Errorf("grant %d: the arbiter admitted thread %d, the model admits %v", i, tid, want[min(i, len(want)-1)])
								close(abort)
								a.Exit(tid)
								return
							}
							got = append(got, tid)
							for _, w := range s.wake {
								a.Unpark(w.tid, w.dlc)
								resume[w.tid] <- struct{}{}
							}
							switch s.end {
							case endPark:
								a.Park(tid)
								select {
								case <-resume[tid]:
								case <-abort:
									return
								}
							case endExit:
								a.Exit(tid)
							case endReleaseExit:
								a.ReleaseTurn(tid, s.cost)
								a.Exit(tid)
							default:
								a.ReleaseTurn(tid, s.cost)
							}
						}
					}(tid)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if len(got) != len(want) {
					t.Fatalf("%d grants, the model admits %d", len(got), len(want))
				}
				chain := int64(0)
				for i := 1; i < len(want); i++ {
					if want[i] == want[i-1] {
						chain++
					}
				}
				if st := a.Stats(); st.ChainHits != chain {
					t.Errorf("%d chain hits, the model's grant sequence has %d", st.ChainHits, chain)
				}
			})
		}
	}
}
