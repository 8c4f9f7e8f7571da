package main

import (
	"sync"
	"time"

	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
	"lazydet/internal/vheap"
)

// Layer drivers: unit costs of a layer's public operations, measured by
// calling them directly at the op mix the workload's own counters report.
// They are estimates of what the same calls cost inside a run (no other
// thread contends here, caches are warm), which is why the ledger keeps an
// unattributed remainder row instead of forcing its rows to close.

// opMix is the shape of one workload's traffic into the memory and
// arbitration layers, read from the counter run.
type opMix struct {
	heapWords      int64
	wordsPerCommit int   // median of the vheap.commit_words histogram
	pagesPerCommit int   // pages_committed / commits
	dlcGap         int64 // mean DLC a thread retires between turn waits
}

// footprint spreads n word addresses over pages pages of a heap, the way a
// commit of n words touching that many pages would.
func (m opMix) footprint() []int64 {
	n, pages := m.wordsPerCommit, m.pagesPerCommit
	if n < 1 {
		n = 1
	}
	if pages < 1 {
		pages = 1
	}
	if pages > n {
		pages = n
	}
	addrs := make([]int64, n)
	for i := range addrs {
		a := int64(i%pages)*pageWords + int64(i/pages)
		addrs[i] = a % m.heapWords
	}
	return addrs
}

// timerCost is what one start/stop pair of the drivers' clock costs; it is
// subtracted from every bracketed call.
func timerCost() float64 {
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / n
}

// perCall turns a bracketed total into nanoseconds per call, net of the
// clock's own cost, floored at zero.
func perCall(total time.Duration, calls int, timer float64) float64 {
	if calls == 0 {
		return 0
	}
	ns := float64(total)/float64(calls) - timer
	if ns < 0 {
		return 0
	}
	return ns
}

// vheapCosts are the versioned heap's unit costs at one op mix.
type vheapCosts struct {
	loadNs, storeNs                          float64 // per word
	commitNs, updateNs, snapshotNs, revertNs float64 // per call at the mix's words per commit
}

// driveVheap measures the heap's public operations on a fresh heap of the
// workload's size: steady-state loads and stores, a commit of the workload's
// median word count over its page spread, a re-base after a foreign commit of
// that size, and a dirty-set snapshot and revert of that size.
func driveVheap(m opMix, timer float64) vheapCosts {
	const accesses = 400_000
	heap := vheap.New(m.heapWords)
	v, other := heap.NewView(), heap.NewView()
	defer v.Close()
	defer other.Close()
	addrs := m.footprint()
	// About two million stored words per measured operation, whatever the
	// commit size: 2000 cycles of small commits, 60 of stencil-bulk's.
	cycles := 2_000_000 / len(addrs)
	if cycles > 2_000 {
		cycles = 2_000
	}
	if cycles < 20 {
		cycles = 20
	}
	var c vheapCosts
	var sink, val int64

	start := time.Now()
	for i := 0; i < accesses; i++ {
		sink += v.Load(addrs[i%len(addrs)])
	}
	c.loadNs = float64(time.Since(start)) / accesses

	for _, a := range addrs { // make the pages dirty first: steady-state stores
		val++
		v.Store(a, val)
	}
	start = time.Now()
	for i := 0; i < accesses; i++ {
		val++
		v.Store(addrs[i%len(addrs)], val)
	}
	c.storeNs = float64(time.Since(start)) / accesses
	v.Revert()

	var commit, update, snapshot, revert time.Duration
	var snap *vheap.DirtySnapshot
	for i := 0; i < cycles; i++ {
		for _, a := range addrs {
			val++
			v.Store(a, val)
		}
		t0 := time.Now()
		v.Commit()
		commit += time.Since(t0)

		for _, a := range addrs {
			val++
			other.Store(a, val)
		}
		other.Commit()
		t0 = time.Now()
		v.Update()
		update += time.Since(t0)

		for _, a := range addrs {
			val++
			v.Store(a, val)
		}
		t0 = time.Now()
		snap = v.SnapshotDirtyInto(snap)
		snapshot += time.Since(t0)
		for _, a := range addrs {
			val++
			v.Store(a, val)
		}
		t0 = time.Now()
		v.RevertTo(snap)
		revert += time.Since(t0)
		v.Revert()
		other.Update()
	}
	driverSink += sink
	c.commitNs = perCall(commit, cycles, timer)
	c.updateNs = perCall(update, cycles, timer)
	c.snapshotNs = perCall(snapshot, cycles, timer)
	c.revertNs = perCall(revert, cycles, timer)
	return c
}

// driverSink keeps the drivers' loads from being optimized away.
var driverSink int64

// driveMempipe measures one Publish+Refresh through the Pipeline interface
// at one dirty word — next to vheap.commit_ns at one word it shows what the
// pipeline layer adds over a raw View.Commit.
func driveMempipe(m opMix, timer float64) float64 {
	const cycles = 20_000
	th := mempipe.NewVersioned(vheap.New(m.heapWords), nil).NewThread(0)
	defer th.Close()
	var total time.Duration
	for i := 1; i <= cycles; i++ {
		th.Store(0, int64(i))
		t0 := time.Now()
		th.Publish()
		th.Refresh()
		total += time.Since(t0)
	}
	return perCall(total, cycles, timer)
}

// driveDLC replays the arbiter's public calls: grantNs is wall time per turn
// when all simulated threads loop Tick(gap) / WaitTurn / ReleaseTurn — the
// arbiter's hand-off throughput at the workload's mean DLC gap; tickNs is one
// uncontended Tick of a full batch.
func driveDLC(m opMix) (grantNs, tickNs float64) {
	const turns, ticks = 20_000, 1_000_000
	gap := m.dlcGap
	if gap < 1 {
		gap = 1
	}
	arb := dlc.New(threads)
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < turns; i++ {
				arb.Tick(tid, gap)
				arb.WaitTurn(tid)
				arb.ReleaseTurn(tid, 2)
			}
			arb.WaitTurn(tid)
			arb.Exit(tid)
		}(tid)
	}
	wg.Wait()
	grantNs = float64(time.Since(start)) / (threads * turns)

	arb = dlc.New(threads)
	start = time.Now()
	for i := 0; i < ticks; i++ {
		arb.Tick(0, dlc.TickWindow)
	}
	tickNs = float64(time.Since(start)) / ticks
	return grantNs, tickNs
}

// stubEngine runs a program with every synchronization hook a no-op and
// memory a flat slice: what is left is the VM's dispatch cost alone.
type stubEngine struct {
	mem     flatWindow
	count   bool
	retired int64
}

type flatWindow []int64

func (m flatWindow) Load(addr int64) int64 { return m[addr] }
func (m flatWindow) Store(addr, val int64) { m[addr] = val }

func (e *stubEngine) Name() string        { return "stub" }
func (e *stubEngine) Deterministic() bool { return false }
func (e *stubEngine) ThreadStart(t *dvm.Thread) {
	t.Mem = e.mem
	if e.count {
		t.EnableRetiredCounts()
	}
}
func (e *stubEngine) ThreadExit(t *dvm.Thread) bool {
	for _, n := range t.RetiredCounts() {
		e.retired += n
	}
	return true
}
func (e *stubEngine) Tick(*dvm.Thread, int64)               {}
func (e *stubEngine) Lock(*dvm.Thread, int64)               {}
func (e *stubEngine) Unlock(*dvm.Thread, int64)             {}
func (e *stubEngine) RLock(*dvm.Thread, int64)              {}
func (e *stubEngine) RUnlock(*dvm.Thread, int64)            {}
func (e *stubEngine) CondWait(*dvm.Thread, int64, int64)    {}
func (e *stubEngine) CondSignal(*dvm.Thread, int64)         {}
func (e *stubEngine) CondBroadcast(*dvm.Thread, int64)      {}
func (e *stubEngine) BarrierWait(*dvm.Thread, int64)        {}
func (e *stubEngine) Syscall(*dvm.Thread, *dvm.Syscall)     {}
func (e *stubEngine) Spawn(*dvm.Thread, int)                {}
func (e *stubEngine) Join(*dvm.Thread, int)                 {}
func (e *stubEngine) Atomic(*dvm.Thread, *dvm.Atomic) int64 { return 0 }

// dvmCosts are the VM's dispatch costs on one workload's programs.
type dvmCosts struct {
	interpNs, compiledNs float64 // per retired instruction, thread 0's program alone
	compileNs            float64 // lowering all the workload's programs
}

// driveDVM runs thread 0's program alone on the stub engine, under the
// interpreter and under the threaded-code backend. One thread, because with
// no-op locks the programs would race on the flat slice; thread 0's
// instruction mix is the workload's (sim-open's is the arrival generator's).
func driveDVM(progs []*dvm.Program, heapWords int64) (dvmCosts, error) {
	var c dvmCosts
	start := time.Now()
	compiled := make(map[*dvm.Program]*dvm.Compiled, len(progs))
	for _, p := range progs {
		if compiled[p] == nil {
			cp, err := dvm.Compile(p)
			if err != nil {
				return c, err
			}
			compiled[p] = cp
		}
	}
	c.compileNs = float64(time.Since(start))

	one := progs[:1]
	counter := &stubEngine{mem: make(flatWindow, heapWords), count: true}
	dvm.Run(counter, one)
	if counter.retired == 0 {
		return c, nil
	}
	timed := func(opts ...dvm.RunOption) float64 {
		eng := &stubEngine{mem: make(flatWindow, heapWords)}
		start := time.Now()
		dvm.Run(eng, one, opts...)
		return float64(time.Since(start)) / float64(counter.retired)
	}
	c.interpNs = timed()
	c.compiledNs = timed(dvm.WithExecs([]dvm.Exec{compiled[progs[0]]}))
	return c, nil
}
