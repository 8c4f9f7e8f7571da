package dlc

import (
	"fmt"
	"sync"
	"testing"
)

func BenchmarkTickUncontended(b *testing.B) {
	a := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Tick(0, 1)
	}
}

func BenchmarkTurnSoloThread(b *testing.B) {
	a := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.WaitTurn(0)
		a.ReleaseTurn(0, 2)
	}
}

// BenchmarkTurnHandoff measures the full deterministic turn protocol under
// contention: n threads round-robin through turns.
func BenchmarkTurnHandoff(b *testing.B) {
	for _, n := range []int{2, 8, 32, 256} {
		b.Run(fmt.Sprintf("%d-threads", n), func(b *testing.B) {
			a := New(n)
			per := b.N/n + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						a.Tick(tid, 3)
						a.WaitTurn(tid)
						a.ReleaseTurn(tid, 2)
					}
					a.Exit(tid)
				}(tid)
			}
			wg.Wait()
		})
	}
}
