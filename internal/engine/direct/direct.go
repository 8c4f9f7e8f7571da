// Package direct implements the nondeterministic pthreads baseline: plain
// mutexes, condition variables and barriers over non-isolated shared memory.
// Every result in the paper's evaluation is normalized to this engine's
// runtime on the same program.
package direct

import (
	"sync"
	"time"

	"lazydet/internal/dvm"
	"lazydet/internal/mempipe"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
)

// Engine is the pthreads-equivalent runtime.
type Engine struct {
	mem      *shmem.Mem // kept for hardware atomics
	pipe     mempipe.Pipeline
	locks    []sync.RWMutex
	conds    []cond
	barriers []barrier

	// Counter, if non-nil, records per-lock acquisitions (Table 1).
	Counter *stats.LockCounter
	// Times, if non-nil, records per-thread blocked time (Figure 10).
	Times *stats.Times
}

type cond struct {
	mu      sync.Mutex
	waiters []chan struct{}
}

type barrier struct {
	mu      sync.Mutex
	parties int
	arrived int
	waiters []chan struct{}
}

// New creates a pthreads-style engine over mem with the given numbers of
// synchronization objects. Barriers span all nthreads threads.
func New(mem *shmem.Mem, nthreads, nlocks, nconds, nbarriers int) *Engine {
	e := &Engine{
		mem:      mem,
		pipe:     mempipe.NewFlat(mem),
		locks:    make([]sync.RWMutex, nlocks),
		conds:    make([]cond, nconds),
		barriers: make([]barrier, nbarriers),
	}
	for i := range e.barriers {
		e.barriers[i].parties = nthreads
	}
	return e
}

// Name implements dvm.Engine.
func (e *Engine) Name() string { return "pthreads" }

// Deterministic implements dvm.Engine: the baseline makes no determinism
// guarantee.
func (e *Engine) Deterministic() bool { return false }

// ThreadStart implements dvm.Engine: install the thread's flat memory
// window. The baseline shares the same pipeline layer as the deterministic
// engines; its windows just write straight through.
func (e *Engine) ThreadStart(t *dvm.Thread) { t.Mem = e.pipe.NewThread(t.ID) }

// ThreadExit implements dvm.Engine.
func (e *Engine) ThreadExit(*dvm.Thread) bool { return true }

// Tick implements dvm.Engine; the baseline keeps no logical clock.
func (e *Engine) Tick(*dvm.Thread, int64) {}

// Lock implements dvm.Engine.
func (e *Engine) Lock(t *dvm.Thread, l int64) {
	if e.Times == nil {
		e.locks[l].Lock()
	} else {
		start := time.Now()
		e.locks[l].Lock()
		e.Times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
	}
	e.Counter.Inc(l)
}

// Unlock implements dvm.Engine.
func (e *Engine) Unlock(_ *dvm.Thread, l int64) { e.locks[l].Unlock() }

// RLock implements dvm.Engine.
func (e *Engine) RLock(t *dvm.Thread, l int64) {
	if e.Times == nil {
		e.locks[l].RLock()
	} else {
		start := time.Now()
		e.locks[l].RLock()
		e.Times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
	}
	e.Counter.Inc(l)
}

// RUnlock implements dvm.Engine.
func (e *Engine) RUnlock(_ *dvm.Thread, l int64) { e.locks[l].RUnlock() }

// CondWait implements dvm.Engine: release l, wait on cv, reacquire l.
func (e *Engine) CondWait(t *dvm.Thread, cv, l int64) {
	c := &e.conds[cv]
	ch := make(chan struct{})
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	e.locks[l].Unlock()
	start := time.Now()
	<-ch
	if e.Times != nil {
		e.Times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
	}
	e.Lock(t, l)
}

// CondSignal implements dvm.Engine.
func (e *Engine) CondSignal(_ *dvm.Thread, cv int64) {
	c := &e.conds[cv]
	c.mu.Lock()
	if len(c.waiters) > 0 {
		close(c.waiters[0])
		c.waiters = c.waiters[1:]
	}
	c.mu.Unlock()
}

// CondBroadcast implements dvm.Engine.
func (e *Engine) CondBroadcast(_ *dvm.Thread, cv int64) {
	c := &e.conds[cv]
	c.mu.Lock()
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
	c.mu.Unlock()
}

// BarrierWait implements dvm.Engine.
func (e *Engine) BarrierWait(t *dvm.Thread, bid int64) {
	b := &e.barriers[bid]
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.parties {
		for _, ch := range b.waiters {
			close(ch)
		}
		b.waiters = nil
		b.arrived = 0
		b.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	b.waiters = append(b.waiters, ch)
	b.mu.Unlock()
	start := time.Now()
	<-ch
	if e.Times != nil {
		e.Times.AddBlocked(t.ID, time.Since(start).Nanoseconds())
	}
}

// Syscall implements dvm.Engine: perform the simulated kernel work and the
// effect immediately.
func (e *Engine) Syscall(t *dvm.Thread, s *dvm.Syscall) {
	dvm.Burn(s.Work)
	if s.Effect != nil {
		s.Effect(t)
	}
}

// Spawn and Join implement dvm.Engine's pthread_create/join hooks, which no
// instruction reaches: every thread starts with the run. They remain only
// because dvm.Engine still declares them.
func (e *Engine) Spawn(*dvm.Thread, int) {}
func (e *Engine) Join(*dvm.Thread, int)  {}

// Atomic implements dvm.Engine with hardware atomics.
func (e *Engine) Atomic(t *dvm.Thread, a *dvm.Atomic) int64 {
	addr := a.Addr(t)
	switch a.Kind {
	case dvm.AtomicAdd:
		return e.mem.Add(addr, a.Delta(t))
	case dvm.AtomicCAS:
		if e.mem.CAS(addr, a.Old(t), a.New(t)) {
			return 1
		}
		return 0
	case dvm.AtomicExchange:
		return e.mem.Swap(addr, a.New(t))
	default:
		panic("direct: unknown atomic kind")
	}
}
