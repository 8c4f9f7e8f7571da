package core

import (
	"testing"

	"lazydet/internal/dvm"
)

// atomicCounterProg builds a program atomically incrementing word 0 n times.
func atomicCounterProg(n int64) *dvm.Program {
	b := dvm.NewBuilder("atomic-counter")
	i, r := b.Reg(), b.Reg()
	b.ForN(i, n, func() {
		b.AtomicAdd(r, dvm.Const(0), dvm.Const(1))
	})
	return b.Build()
}

// TestAtomicAddAllModes: atomic increments must never be lost under any
// deterministic mode.
func TestAtomicAddAllModes(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: ModeStrong},
		{Mode: ModeStrong, Speculation: true},
		{Mode: ModeWeak},
		{Mode: ModeWeakNondet},
	} {
		name := cfg.Mode.String()
		if cfg.Speculation {
			name = "lazydet"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, cfg, 4, 16, 1, 0, 0)
			p := atomicCounterProg(200)
			dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
			if got := r.read(0); got != 800 {
				t.Fatalf("counter = %d, want 800", got)
			}
		})
	}
}

// TestAtomicCASSemantics: CAS succeeds exactly once per value under
// contention, so a CAS-based claim loop allocates distinct slots.
func TestAtomicCASSemantics(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 1, 0, 0)
	// Each thread claims 8 slots by CAS-ing 0 → tid+1 over the slot
	// array; on failure it moves on. Every slot ends up claimed once.
	b := dvm.NewBuilder("cas")
	s, ok := b.Reg(), b.Reg()
	b.ForN(s, 32, func() {
		b.AtomicCAS(ok, dvm.Dyn(func(t *dvm.Thread) int64 { return 8 + t.R(s) }), dvm.Const(0), dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) + 1 }))
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	for slot := int64(8); slot < 40; slot++ {
		v := r.read(slot)
		if v < 1 || v > 4 {
			t.Fatalf("slot %d = %d, want a claimant in 1..4", slot, v)
		}
	}
}

// TestAtomicExchange: the exchanged-out values across all threads plus the
// final value must form the complete multiset of written values.
func TestAtomicExchange(t *testing.T) {
	r := newRig(t, Config{Mode: ModeStrong}, 2, 16, 1, 0, 0)
	b := dvm.NewBuilder("xchg")
	i, prev, acc := b.Reg(), b.Reg(), b.Reg()
	b.ForN(i, 50, func() {
		b.AtomicExchange(prev, dvm.Const(0), dvm.Const(1))
		b.Do(func(t *dvm.Thread) { t.AddR(acc, t.R(prev)) })
	})
	b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return 1 + int64(t.ID) }), dvm.FromReg(acc))
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p})
	// 100 exchanges write 1; the sum of previous values plus the final
	// cell equals the number of 1-writes observed (first exchange reads
	// the initial 0).
	total := r.read(1) + r.read(2) + r.read(0)
	if total != 100 {
		t.Fatalf("exchange accounting = %d, want 100", total)
	}
}

// TestSpeculativeAtomicsStayInRun: atomics on disjoint locations do not
// terminate speculation runs.
func TestSpeculativeAtomicsStayInRun(t *testing.T) {
	r := newRig(t, lazyCfg(), 1, 64, 4, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 8, func() {
		l := dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(i) % 4 })
		b.Lock(l)
		b.AtomicAdd(v, dvm.Dyn(func(t *dvm.Thread) int64 { return 16 + t.R(i)%4 }), dvm.Const(1))
		b.Unlock(l)
	})
	dvm.Run(r.eng, []*dvm.Program{b.Build()})
	if runs := r.spec.Runs.Load(); runs != 1 {
		t.Errorf("runs = %d, want 1 (atomics must not end runs)", runs)
	}
	for a := int64(16); a < 20; a++ {
		if got := r.read(a); got != 2 {
			t.Errorf("word %d = %d, want 2", a, got)
		}
	}
}

// TestAtomicConflictReverts: two threads' speculative runs updating the
// same atomic location must conflict — location-level detection — and the
// final count must still be exact.
func TestAtomicConflictReverts(t *testing.T) {
	r := newRig(t, lazyCfg(), 4, 64, 4, 0, 0)
	b := dvm.NewBuilder("p")
	i, v := b.Reg(), b.Reg()
	b.ForN(i, 100, func() {
		l := dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) })
		b.Lock(l) // disjoint locks: only the atomic location is shared
		b.AtomicAdd(v, dvm.Const(32), dvm.Const(1))
		b.Unlock(l)
	})
	p := b.Build()
	dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
	if got := r.read(32); got != 400 {
		t.Fatalf("counter = %d, want 400 (atomic updates lost)", got)
	}
	if r.spec.Reverts.Load() == 0 {
		t.Error("no reverts despite a shared atomic location across speculative runs")
	}
}

// TestAtomicDeterminism: repeated lazy runs of a contended atomic workload
// must produce identical traces and heaps.
func TestAtomicDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		r := newRig(t, lazyCfg(), 4, 64, 4, 0, 0)
		b := dvm.NewBuilder("p")
		i, v := b.Reg(), b.Reg()
		b.ForN(i, 150, func() {
			l := dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) })
			b.Lock(l)
			b.AtomicAdd(v, dvm.Dyn(func(t *dvm.Thread) int64 { return 32 + t.R(i)%2 }), dvm.Const(1))
			b.Unlock(l)
		})
		p := b.Build()
		dvm.Run(r.eng, []*dvm.Program{p, p, p, p})
		return r.heap.Hash(), r.rec.Signature()
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1 != h2 || s1 != s2 {
		t.Fatalf("atomic workload not deterministic: heap %x/%x trace %x/%x", h1, h2, s1, s2)
	}
}
