package core

import (
	"fmt"
	"testing"

	"lazydet/internal/dvm"
)

// TestRWLockReadersAdmitEachOther: conventional readers may overlap; the
// reader count returns to zero and a subsequent writer proceeds.
func TestRWLockReadersAdmitEachOther(t *testing.T) {
	r := newRig(t, Config{Mode: ModeStrong}, 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("readers")
	i, v, acc := b.Reg(), b.Reg(), b.Reg()
	b.ForN(i, 50, func() {
		b.RLock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.Do(func(th *dvm.Thread) { th.AddR(acc, th.R(v)) })
		b.RUnlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.tbl.Locks[0].Readers; got != 0 {
		t.Fatalf("reader count = %d after run, want 0", got)
	}
}

// TestRWLockWriterExcludesReaders: a writer's updates are never torn by
// readers — each reader sees both halves of the invariant consistently.
func TestRWLockWriterExcludesReaders(t *testing.T) {
	for _, cfg := range []Config{{Mode: ModeStrong}, lazyCfg(), {Mode: ModeWeak}} {
		name := cfg.Mode.String()
		if cfg.Speculation {
			name = "lazydet"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, cfg, 4, 64, 1, 0, 0)
			progs := make([]*dvm.Program, 4)
			// Writer: keeps x and y equal, incrementing both under the
			// write lock.
			w := dvm.NewBuilder("writer")
			{
				i, v := w.Reg(), w.Reg()
				w.ForN(i, 80, func() {
					w.Lock(dvm.Const(0))
					w.Load(v, dvm.Const(1))
					w.Store(dvm.Const(1), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
					w.Load(v, dvm.Const(2))
					w.Store(dvm.Const(2), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
					w.Unlock(dvm.Const(0))
				})
			}
			progs[0] = w.Build()
			// Readers: under the read lock, x must equal y; a violation
			// is recorded in the reader's private cell.
			for tid := 1; tid < 4; tid++ {
				rd := dvm.NewBuilder(fmt.Sprintf("reader-%d", tid))
				i, x, y := rd.Reg(), rd.Reg(), rd.Reg()
				rd.ForN(i, 80, func() {
					rd.RLock(dvm.Const(0))
					rd.Load(x, dvm.Const(1))
					rd.Load(y, dvm.Const(2))
					rd.If(func(th *dvm.Thread) bool { return th.R(x) != th.R(y) }, func() {
						rd.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return 10 + int64(th.ID) }), dvm.Const(1))
					})
					rd.RUnlock(dvm.Const(0))
				})
				progs[tid] = rd.Build()
			}
			dvm.Run(r.eng, progs)
			if got := r.read(1); got != 80 {
				t.Fatalf("x = %d, want 80", got)
			}
			for tid := int64(1); tid < 4; tid++ {
				if r.read(10+tid) != 0 {
					t.Fatalf("reader %d observed torn writer state", tid)
				}
			}
		})
	}
}

// TestSpeculativeReadersNeverConflict: speculative runs that only
// read-lock a shared lock commit without conflicts, even though they all
// touch the same lock — the dependence-aware benefit of shared mode.
func TestSpeculativeReadersNeverConflict(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("specreaders")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 150, func() {
		b.RLock(dvm.Const(0))
		b.Load(v, dvm.Const(0))
		b.RUnlock(dvm.Const(0))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if rv := r.spec.Reverts.Load(); rv != 0 {
		t.Fatalf("%d reverts among pure readers, want 0", rv)
	}
	if pct := r.spec.SuccessPct(); pct != 100 {
		t.Fatalf("success = %.1f%%, want 100%%", pct)
	}
}

// TestSpeculativeWriterConflictsWithReaderCommit: a speculative writer on a
// lock whose readers commit first must revert, and the final counter is
// exact.
func TestSpeculativeWritersStayCorrect(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 1, 0, 0)
	b := dvm.NewBuilder("mixed")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 100, func() {
		b.IfElse(func(th *dvm.Thread) bool { return th.R(i)%4 == 0 },
			func() {
				b.Lock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
				b.Unlock(dvm.Const(0))
			},
			func() {
				b.RLock(dvm.Const(0))
				b.Load(v, dvm.Const(0))
				b.RUnlock(dvm.Const(0))
			},
		)
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(0); got != 4*25 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

// TestRWLockDeterminism: mixed reader/writer workloads reproduce exactly.
func TestRWLockDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		r := newRig(t, lazyCfg(), 4, 64, 2, 0, 0)
		b := dvm.NewBuilder("rwdet")
		i, v := b.Reg(), b.Reg()
		b.ForN(i, 120, func() {
			l := dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(i) % 2 })
			b.IfElse(func(th *dvm.Thread) bool { return th.RandN(3) == 0 },
				func() {
					b.Lock(l)
					b.Load(v, dvm.Dyn(func(th *dvm.Thread) int64 { return 4 + th.R(i)%2 }))
					b.Store(dvm.Dyn(func(th *dvm.Thread) int64 { return 4 + th.R(i)%2 }), dvm.Dyn(func(th *dvm.Thread) int64 { return th.R(v) + 1 }))
					b.Unlock(l)
				},
				func() {
					b.RLock(l)
					b.Load(v, dvm.Dyn(func(th *dvm.Thread) int64 { return 4 + th.R(i)%2 }))
					b.RUnlock(l)
				},
			)
		})
		p := b.Build()
		dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
		return r.heap.Hash(), r.rec.Signature()
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1 != h2 || s1 != s2 {
		t.Fatalf("rwlock workload not deterministic: heap %x/%x trace %x/%x", h1, h2, s1, s2)
	}
}

// TestSharedHoldOutlivesItsRun: a run that commits while it still holds a
// lock shared leaves a conventional reader behind. Thread 0 read-locks a,
// and inside the same run takes l and waits on a condition variable, so the
// run commits at the wait with a still held; thread 0 then works on, writes
// a marker and only then releases a. Thread 1 signals and takes a
// exclusively: it must wait for thread 0's release and see the marker.
func TestSharedHoldOutlivesItsRun(t *testing.T) {
	const a, l, cv, flag, marker, seen = 0, 1, 0, 8, 9, 10
	r := newRig(t, lazyCfg(), 2, 64, 2, 1, 0)
	var waitedInRun bool

	b0 := dvm.NewBuilder("reader")
	fv, i := b0.Reg(), b0.Reg()
	b0.RLock(dvm.Const(a))
	b0.Lock(dvm.Const(l))
	b0.Load(fv, dvm.Const(flag))
	b0.While(func(th *dvm.Thread) bool { return th.R(fv) == 0 }, func() {
		// Inside a run every hold is speculative, a's included.
		b0.Do(func(th *dvm.Thread) { waitedInRun = waitedInRun || r.eng.ts(th).spec })
		b0.CondWait(dvm.Const(cv), dvm.Const(l))
		b0.Load(fv, dvm.Const(flag))
	})
	b0.Unlock(dvm.Const(l))
	b0.ForN(i, 400, func() { b0.Do(func(*dvm.Thread) {}) })
	b0.Store(dvm.Const(marker), dvm.Const(1))
	b0.RUnlock(dvm.Const(a))

	b1 := dvm.NewBuilder("writer")
	j, v := b1.Reg(), b1.Reg()
	b1.ForN(j, 100, func() { b1.Do(func(*dvm.Thread) {}) })
	b1.Lock(dvm.Const(l))
	b1.Store(dvm.Const(flag), dvm.Const(1))
	b1.CondSignal(dvm.Const(cv))
	b1.Unlock(dvm.Const(l))
	b1.Lock(dvm.Const(a))
	b1.Load(v, dvm.Const(marker))
	b1.Store(dvm.Const(seen), dvm.FromReg(v))
	b1.Unlock(dvm.Const(a))

	dvm.Run(r.eng, []*dvm.Program{b0.Build(), b1.Build()})
	if !waitedInRun {
		t.Fatal("thread 0 never waited inside a run; the test no longer builds its shape")
	}
	if got := r.read(seen); got != 1 {
		t.Fatalf("writer saw marker %d, want 1: it took a while the committed run's reader still held it", got)
	}
	if st := r.tbl.Locks[a]; st.Owner != 0 || st.Readers != 0 {
		t.Fatalf("lock a left with owner %d, %d readers", st.Owner, st.Readers)
	}
}
