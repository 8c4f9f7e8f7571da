package main

import (
	"time"

	"lazydet"
	"lazydet/internal/core"
	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/opensim"
	"lazydet/internal/stats"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// tracedOut is what one traced run produced.
type tracedOut struct {
	wall      time.Duration
	heapHash  uint64
	traceSig  uint64
	blockedNs int64 // stats.Times: time blocked in turn and wake waits
	finalDLC  [threads]int64
	ledger    ledger
}

// tracedRun runs workload w under LazyDet (speculate) or Consequence with
// every hook call traced. The public Run builds its engine privately, so
// this mirrors harness.Run's default wiring for the strong engines — default
// heap, tournament arbiter, default core.Config — and puts the tracedEngine
// between the VM and core. Blocked-time accounting is on, so the ledger's
// blocked row comes from the same run as its spans; withSig attaches a
// sync-order recorder (Options.Trace's), so the fidelity tests can compare
// TraceSig with the public path.
func tracedRun(w *lazydet.Workload, speculate bool, tr *tracer, withSig bool) (*tracedOut, error) {
	progs := w.Programs(threads)
	heap := vheap.New(w.HeapWords)
	if w.Init != nil {
		w.Init(heap.SetInitial, threads)
	}
	arb := dlc.New(threads)
	times := stats.NewTimes(threads)
	var rec *trace.Recorder
	if withSig {
		rec = trace.New(threads)
	}
	eng := core.New(
		core.Config{Mode: core.ModeStrong, Speculation: speculate},
		core.Deps{
			Arb:   arb,
			Tbl:   detsync.NewTable(threads, w.Locks, w.Conds, w.Barriers, speculate),
			Heap:  heap,
			Rec:   rec,
			Times: times,
		})
	tr.reset()
	start := time.Now()
	dvm.Run(&tracedEngine{inner: eng, tr: tr}, progs)
	out := &tracedOut{
		wall:      time.Since(start),
		heapHash:  heap.Hash(),
		blockedNs: times.TotalBlockedNs(),
		ledger:    ledgerOf(tr),
	}
	if rec != nil {
		out.traceSig = rec.Signature()
	}
	for t := range out.finalDLC {
		out.finalDLC[t] = arb.DLC(t)
	}
	if w.Validate != nil {
		return out, w.Validate(heap.ReadCommitted, threads)
	}
	return out, nil
}

// simWorkload rebuilds the workload opensim.Run executes, which opensim does
// not export: the programs come from opensim.VetPrograms, the heap and lock
// table sizes from opensim's layout (8 control words, the accounts, one queue
// slot and four stamp words per request; the queue lock plus the stripes).
// There is no Validate: the traced pass checks the rebuilt run against
// opensim.Run's own HeapHash instead, which also guards these constants.
func simWorkload(cfg opensim.Config) *lazydet.Workload {
	progs := opensim.VetPrograms(cfg, threads)
	return &lazydet.Workload{
		Name:      "sim-open",
		HeapWords: 8 + int64(cfg.Keys) + 5*int64(cfg.Requests),
		Locks:     1 + cfg.Stripes,
		Programs:  func(int) []*lazydet.Program { return progs },
	}
}

// tracedWorkload is the workload the traced pass runs for inst.
func tracedWorkload(inst *instance) *lazydet.Workload {
	if inst.sim != nil {
		return simWorkload(*inst.sim)
	}
	return inst.closed.w
}
