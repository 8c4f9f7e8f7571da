package direct

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
)

func run(t *testing.T, e *Engine, progs []*dvm.Program) {
	t.Helper()
	dvm.Run(e, progs)
}

func TestMutualExclusion(t *testing.T) {
	mem := shmem.New(8)
	e := New(mem, 4, 1, 0, 0)
	b := dvm.NewBuilder("inc")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 500, func() {
		b.Lock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(dvm.Const(0))
	})
	p := b.Build()
	run(t, e, []*dvm.Program{p, p, p, p})
	if got := mem.Load(0); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestCondVarHandshake(t *testing.T) {
	mem := shmem.New(8)
	e := New(mem, 2, 1, 1, 0)

	waiter := dvm.NewBuilder("waiter")
	fv := waiter.Reg()
	waiter.Lock(dvm.Const(0))
	waiter.Load(fv, dvm.Const(0))
	waiter.While(func(th *dvm.Thread) bool { return th.R(fv) == 0 }, func() {
		waiter.CondWait(dvm.Const(0), dvm.Const(0))
		waiter.Load(fv, dvm.Const(0))
	})
	waiter.Store(dvm.Const(1), dvm.Const(99))
	waiter.Unlock(dvm.Const(0))

	signaler := dvm.NewBuilder("signaler")
	signaler.Lock(dvm.Const(0))
	signaler.Store(dvm.Const(0), dvm.Const(1))
	signaler.CondSignal(dvm.Const(0))
	signaler.Unlock(dvm.Const(0))

	run(t, e, []*dvm.Program{waiter.Build(), signaler.Build()})
	if got := mem.Load(1); got != 99 {
		t.Fatalf("handshake result = %d, want 99", got)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	mem := shmem.New(16)
	const waiters = 3
	e := New(mem, waiters+1, 1, 1, 0)
	progs := make([]*dvm.Program, waiters+1)
	for tid := 0; tid < waiters; tid++ {
		b := dvm.NewBuilder(fmt.Sprintf("w%d", tid))
		fv := b.Reg()
		b.Lock(dvm.Const(0))
		b.Load(fv, dvm.Const(0))
		b.While(func(th *dvm.Thread) bool { return th.R(fv) == 0 }, func() {
			b.CondWait(dvm.Const(0), dvm.Const(0))
			b.Load(fv, dvm.Const(0))
		})
		b.Unlock(dvm.Const(0))
		b.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return 1 + int64(th.ID) }), dvm.Const(1))
		progs[tid] = b.Build()
	}
	b := dvm.NewBuilder("bcast")
	i := b.Reg()
	b.ForN(i, 1000, func() { b.Do(func(*dvm.Thread) {}) }) // let waiters park
	b.Lock(dvm.Const(0))
	b.Store(dvm.Const(0), dvm.Const(1))
	b.CondBroadcast(dvm.Const(0))
	b.Unlock(dvm.Const(0))
	progs[waiters] = b.Build()

	run(t, e, progs)
	for tid := int64(0); tid < waiters; tid++ {
		if mem.Load(1+tid) != 1 {
			t.Fatalf("waiter %d not woken", tid)
		}
	}
}

func TestBarrierRendezvous(t *testing.T) {
	mem := shmem.New(16)
	const n = 4
	e := New(mem, n, 0, 0, 1)
	progs := make([]*dvm.Program, n)
	for tid := 0; tid < n; tid++ {
		b := dvm.NewBuilder("b")
		v, sum := b.Reg(), b.Reg()
		b.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return int64(th.ID) }), dvm.Const(1))
		b.Barrier(dvm.Const(0))
		for o := int64(0); o < n; o++ {
			b.Load(v, dvm.Const(o))
			b.Do(func(th *dvm.Thread) { th.AddR(sum, th.R(v)) })
		}
		b.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return 8 + int64(th.ID) }), dvm.FromReg(sum))
		progs[tid] = b.Build()
	}
	run(t, e, progs)
	for tid := int64(0); tid < n; tid++ {
		if got := mem.Load(8 + tid); got != n {
			t.Fatalf("thread %d saw %d pre-barrier writes, want %d", tid, got, n)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	mem := shmem.New(8)
	const n = 3
	e := New(mem, n, 1, 0, 1)
	progs := make([]*dvm.Program, n)
	for tid := 0; tid < n; tid++ {
		b := dvm.NewBuilder("b")
		i, v := b.Reg(), b.Reg()
		b.ForN(i, 5, func() {
			b.Lock(dvm.Const(0))
			b.Load(v, dvm.Const(0))
			b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
			b.Unlock(dvm.Const(0))
			b.Barrier(dvm.Const(0))
		})
		progs[tid] = b.Build()
	}
	run(t, e, progs)
	if got := mem.Load(0); got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
}

func TestLockCounting(t *testing.T) {
	mem := shmem.New(8)
	e := New(mem, 2, 3, 0, 0)
	e.Counter = stats.NewLockCounter(3)
	b := dvm.NewBuilder("p")
	i := b.Reg()
	b.ForN(i, 9, func() {
		l := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 3 })
		b.Lock(l)
		b.Unlock(l)
	})
	p := b.Build()
	run(t, e, []*dvm.Program{p, p})
	s := e.Counter.Summarize()
	if s.Acquisitions != 18 || s.Variables != 3 {
		t.Fatalf("summary = %+v, want 18 acquisitions over 3 locks", s)
	}
}

func TestSyscallEffect(t *testing.T) {
	mem := shmem.New(8)
	e := New(mem, 1, 1, 0, 0)
	n := 0
	b := dvm.NewBuilder("p")
	b.Syscall(&dvm.Syscall{Name: "x", Work: 5, Effect: func(*dvm.Thread) { n++ }})
	run(t, e, []*dvm.Program{b.Build()})
	if n != 1 {
		t.Fatalf("effect ran %d times", n)
	}
}

func TestAtomics(t *testing.T) {
	mem := shmem.New(8)
	e := New(mem, 4, 1, 0, 0)
	b := dvm.NewBuilder("p")
	i, r := b.Reg(), b.Reg()
	b.ForN(i, 1000, func() {
		b.AtomicAdd(r, dvm.Const(0), dvm.Const(1))
	})
	p := b.Build()
	run(t, e, []*dvm.Program{p, p, p, p})
	if got := mem.Load(0); got != 4000 {
		t.Fatalf("atomic counter = %d, want 4000", got)
	}
}
