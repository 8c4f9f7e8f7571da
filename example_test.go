package lazydet_test

import (
	"fmt"

	"lazydet"
)

// Example builds a two-thread counter and runs it deterministically under
// LazyDet.
func Example() {
	w := &lazydet.Workload{
		Name:      "example",
		HeapWords: 8,
		Locks:     1,
		Programs: func(threads int) []*lazydet.Program {
			b := lazydet.NewProgram("inc")
			i, v := b.Reg(), b.Reg()
			b.ForN(i, 1000, func() {
				b.Lock(lazydet.Const(0))
				b.Load(v, lazydet.Const(0))
				b.Store(lazydet.Const(0), lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(v) + 1 }))
				b.Unlock(lazydet.Const(0))
			})
			p := b.Build()
			progs := make([]*lazydet.Program, threads)
			for t := range progs {
				progs[t] = p
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			if got := read(0); got != int64(threads)*1000 {
				return fmt.Errorf("counter = %d", got)
			}
			return nil
		},
	}
	if _, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.LazyDet, Threads: 2}); err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Println("counted to 2000 deterministically")
	// Output: counted to 2000 deterministically
}

// ExampleVerify checks that two executions are bit-identical — the
// determinism guarantee.
func ExampleVerify() {
	w := &lazydet.Workload{
		Name:      "verify-example",
		HeapWords: 8,
		Locks:     1,
		Programs: func(threads int) []*lazydet.Program {
			progs := make([]*lazydet.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := lazydet.NewProgram("writer")
				// Deliberate data race: strong determinism still
				// guarantees a reproducible outcome.
				b.Store(lazydet.Const(0), lazydet.Dyn(func(t *lazydet.Thread) int64 { return int64(t.ID) }))
				b.Lock(lazydet.Const(0))
				b.Unlock(lazydet.Const(0))
				progs[tid] = b.Build()
			}
			return progs
		},
	}
	if err := lazydet.Verify(w, lazydet.Options{Engine: lazydet.Consequence, Threads: 4}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("racy program, reproducible outcome")
	// Output: racy program, reproducible outcome
}

// ExampleOptions_speculation tunes LazyDet's speculation parameters — here
// disabling coarsening, one of the paper's Figure 11 ablations.
func ExampleOptions_speculation() {
	sc := lazydet.SpecConfig{NoCoarsening: true}

	w := &lazydet.Workload{
		Name: "ablated", HeapWords: 8, Locks: 4,
		Programs: func(threads int) []*lazydet.Program {
			b := lazydet.NewProgram("p")
			i := b.Reg()
			b.ForN(i, 100, func() {
				l := lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(i) % 4 })
				b.Lock(l)
				b.Store(l, lazydet.FromReg(i))
				b.Unlock(l)
			})
			p := b.Build()
			return []*lazydet.Program{p}
		},
	}
	res, err := lazydet.Run(w, lazydet.Options{
		Engine: lazydet.LazyDet, Threads: 1, Spec: sc, CollectSpec: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("mean speculation run: %.0f critical section(s)\n", res.Spec.MeanRunCS())
	// Output: mean speculation run: 1 critical section(s)
}
