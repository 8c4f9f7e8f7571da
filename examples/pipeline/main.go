// Pipeline shows the two speculation features the paper's Figure 11
// ablates on a ferret-style stage pipeline: coarsening (one speculation
// run spanning many small critical sections) and irrevocable upgrade
// (system calls inside critical sections that would otherwise force a
// revert). It runs full LazyDet against both ablations.
package main

import (
	"fmt"
	"log"

	"lazydet"
)

const (
	items        = 4000
	syscallEvery = 32
)

// pipelineWorkload: thread 0 drains a result area under one hot lock,
// calling a simulated write() inside every 32nd critical section; the
// other threads compute and publish into per-thread slots.
func pipelineWorkload() *lazydet.Workload {
	const slots = 256
	return &lazydet.Workload{
		Name:      "pipeline",
		HeapWords: slots + 1,
		Locks:     2,
		Programs: func(threads int) []*lazydet.Program {
			progs := make([]*lazydet.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := lazydet.NewProgram(fmt.Sprintf("stage-%d", tid))
				i, v := b.Reg(), b.Reg()
				if tid == 0 {
					// Consumer: many tiny critical sections on one
					// lock, with syscalls inside some of them.
					b.ForN(i, items, func() {
						b.Lock(lazydet.Const(0))
						b.Load(v, lazydet.Dyn(func(t *lazydet.Thread) int64 { return 1 + t.R(i)%slots }))
						b.Store(lazydet.Const(0), lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(v) }))
						b.If(func(t *lazydet.Thread) bool { return t.R(i)%syscallEvery == 0 }, func() {
							b.Syscall(&lazydet.Syscall{Name: "write", Work: 200})
						})
						b.Unlock(lazydet.Const(0))
					})
				} else {
					// Producers: compute, then publish lock-free into
					// this thread's slot range.
					b.ForN(i, items/4, func() {
						b.DoCost(10, func(t *lazydet.Thread) {
							t.SetR(v, t.R(i)*2654435761+int64(t.ID))
						})
						b.Store(lazydet.Dyn(func(t *lazydet.Thread) int64 {
							return 1 + (int64(t.ID)*37+t.R(i))%slots
						}), lazydet.FromReg(v))
					})
				}
				progs[tid] = b.Build()
			}
			return progs
		},
	}
}

func main() {
	w := pipelineWorkload()
	const threads = 8

	run := func(label string, spec lazydet.SpecConfig) *lazydet.Result {
		res, err := lazydet.Run(w, lazydet.Options{
			Engine: lazydet.LazyDet, Threads: threads, CollectSpec: true, Spec: spec,
		})
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-16s %10v   spec %.0f%%, success %.0f%%, %.1f CS/run, %d upgrades, %d reverts\n",
			label, res.Wall,
			res.Spec.SpecAcquirePct(), res.Spec.SuccessPct(), res.Spec.MeanRunCS(),
			res.Spec.Upgrades.Load(), res.Spec.Reverts.Load())
		return res
	}

	base, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.Consequence, Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %10v   (eager determinism)\n", "Consequence", base.Wall)

	run("LazyDet", lazydet.SpecConfig{})
	run("NoCoarsening", lazydet.SpecConfig{NoCoarsening: true})
	run("NoIrrevocable", lazydet.SpecConfig{NoIrrevocable: true})
}
