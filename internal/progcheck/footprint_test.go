package progcheck

import (
	"strings"
	"testing"

	"lazydet/internal/dvm"
)

// hintOf runs the full analyzer over progs and returns lock l's verdict
// (VerdictUnknown when the lock was not classified at all).
func hintOf(t *testing.T, progs []*dvm.Program, l int64) SpecVerdict {
	t.Helper()
	rep := Check(progs)
	if rep.Hints == nil {
		t.Fatalf("Check produced no hint table")
	}
	return rep.Hints.Verdicts[l]
}

// TestFootprintDisjointConstants: two replicas guarding distinct constant
// cells under one lock are provably disjoint.
func TestFootprintDisjointConstants(t *testing.T) {
	a := dvm.NewBuilder("fpt-a")
	a.Lock(dvm.Const(0))
	a.Store(dvm.Const(10), dvm.Const(1))
	a.Unlock(dvm.Const(0))
	b := dvm.NewBuilder("fpt-b")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Const(11), dvm.Const(1))
	b.Unlock(dvm.Const(0))
	if got := hintOf(t, []*dvm.Program{a.Build(), b.Build()}, 0); got != VerdictDisjoint {
		t.Fatalf("verdict = %s, want disjoint", got)
	}
}

// TestFootprintUnknownOperandDemotes is the soundness keystone: an access
// through a fully unknown address inside a critical section must demote every
// held lock to Unknown — never let it prove Disjoint — even though all the
// other guarded accesses are provably non-overlapping.
func TestFootprintUnknownOperandDemotes(t *testing.T) {
	for _, mode := range []string{"load", "store"} {
		t.Run(mode, func(t *testing.T) {
			b := dvm.NewBuilder("fpt-dyn-" + mode)
			v := b.Reg()
			b.Lock(dvm.Const(0))
			b.Store(dvm.Const(10), dvm.Const(1)) // a provably private access...
			dyn := dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) })
			if mode == "load" {
				b.Load(v, dyn)
			} else {
				b.Store(dyn, dvm.Const(1))
			}
			b.Unlock(dvm.Const(0))
			p := b.Build()
			rep := Check([]*dvm.Program{p})
			if got := rep.Hints.Verdicts[0]; got != VerdictUnknown {
				t.Fatalf("verdict = %s, want unknown\nreport:\n%s", got, rep.Human())
			}
			if r := rep.Hints.Reasons[0]; !strings.Contains(r, "statically unknown address") {
				t.Fatalf("reason = %q, want unknown-address witness", r)
			}
		})
	}
}

// TestFootprintClassedUnknownAddressKept: an InClass dynamic address is a
// bounded footprint, not a demotion — two different classes stay disjoint.
func TestFootprintClassedUnknownAddressKept(t *testing.T) {
	a := dvm.NewBuilder("fpt-class-a")
	a.Lock(dvm.Const(0))
	a.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) }).InClass("left"), dvm.Const(1))
	a.Unlock(dvm.Const(0))
	b := dvm.NewBuilder("fpt-class-b")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return 64 + int64(t.ID) }).InClass("right"), dvm.Const(1))
	b.Unlock(dvm.Const(0))
	if got := hintOf(t, []*dvm.Program{a.Build(), b.Build()}, 0); got != VerdictDisjoint {
		t.Fatalf("verdict = %s, want disjoint (distinct classes cannot alias)", got)
	}
}

// TestFootprintClassMayOverlap: a shared class with at least one write is
// only a may-overlap — Unknown, not Conflicting and not Disjoint.
func TestFootprintClassMayOverlap(t *testing.T) {
	b := dvm.NewBuilder("fpt-class-shared")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) }).InClass("slots"), dvm.Const(1))
	b.Unlock(dvm.Const(0))
	p := b.Build()
	if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictUnknown {
		t.Fatalf("verdict = %s, want unknown (class-level may-overlap)", got)
	}
}

// TestFootprintProvableConflict: a load/store pair on the same constant cell
// across replicas is Conflicting, and the conflict beats any demotion.
func TestFootprintProvableConflict(t *testing.T) {
	b := dvm.NewBuilder("fpt-conflict")
	v := b.Reg()
	b.Lock(dvm.Const(0))
	b.Load(v, dvm.Const(10))
	b.Store(dvm.Const(10), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
	// An unknown-address store would demote, but the provable conflict wins.
	b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return 32 + int64(t.ID) }), dvm.Const(0))
	b.Unlock(dvm.Const(0))
	p := b.Build()
	if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictConflicting {
		t.Fatalf("verdict = %s, want conflicting (precedence over demotion)", got)
	}
}

// TestFootprintCommutingOverlap: overlaps only through commuting pairs
// classify Unknown — neither a proof that speculation fails nor that it
// cannot; a non-commuting pair is Conflicting.
func TestFootprintCommutingOverlap(t *testing.T) {
	t.Run("atomic-add", func(t *testing.T) {
		b := dvm.NewBuilder("fpt-add")
		v := b.Reg()
		b.Lock(dvm.Const(0))
		b.AtomicAdd(v, dvm.Const(10), dvm.Const(1))
		b.Unlock(dvm.Const(0))
		p := b.Build()
		if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictUnknown {
			t.Fatalf("verdict = %s, want unknown (commuting overlap)", got)
		}
	})
	t.Run("const-store", func(t *testing.T) {
		b := dvm.NewBuilder("fpt-const")
		b.Lock(dvm.Const(0))
		b.Store(dvm.Const(10), dvm.Const(7))
		b.Unlock(dvm.Const(0))
		p := b.Build()
		if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictUnknown {
			t.Fatalf("verdict = %s, want unknown (commuting overlap)", got)
		}
	})
	t.Run("different-const-stores-conflict", func(t *testing.T) {
		a := dvm.NewBuilder("fpt-const-a")
		a.Lock(dvm.Const(0))
		a.Store(dvm.Const(10), dvm.Const(7))
		a.Unlock(dvm.Const(0))
		b := dvm.NewBuilder("fpt-const-b")
		b.Lock(dvm.Const(0))
		b.Store(dvm.Const(10), dvm.Const(8))
		b.Unlock(dvm.Const(0))
		if got := hintOf(t, []*dvm.Program{a.Build(), b.Build()}, 0); got != VerdictConflicting {
			t.Fatalf("verdict = %s, want conflicting (7 vs 8 do not commute)", got)
		}
	})
	t.Run("atomic-cas-conflicts", func(t *testing.T) {
		b := dvm.NewBuilder("fpt-cas")
		v := b.Reg()
		b.Lock(dvm.Const(0))
		b.AtomicCAS(v, dvm.Const(10), dvm.Const(0), dvm.Const(1))
		b.Unlock(dvm.Const(0))
		p := b.Build()
		if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictConflicting {
			t.Fatalf("verdict = %s, want conflicting (CAS does not commute)", got)
		}
	})
}

// TestFootprintReadReadDisjoint: read-read sharing never invalidates a run,
// so a read-only shared cell stays Disjoint.
func TestFootprintReadReadDisjoint(t *testing.T) {
	b := dvm.NewBuilder("fpt-readers")
	v := b.Reg()
	b.Lock(dvm.Const(0))
	b.Load(v, dvm.Const(10))
	b.Unlock(dvm.Const(0))
	p := b.Build()
	if got := hintOf(t, []*dvm.Program{p, p}, 0); got != VerdictDisjoint {
		t.Fatalf("verdict = %s, want disjoint (read-read is harmless)", got)
	}
}

// TestFootprintSingleThreadSelfOverlap: a program that runs on one thread
// cannot race with itself, so its self-overlapping section is Disjoint.
func TestFootprintSingleThreadSelfOverlap(t *testing.T) {
	b := dvm.NewBuilder("fpt-solo")
	v := b.Reg()
	b.Lock(dvm.Const(0))
	b.Load(v, dvm.Const(10))
	b.Store(dvm.Const(10), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
	b.Unlock(dvm.Const(0))
	other := dvm.NewBuilder("fpt-bystander")
	other.Lock(dvm.Const(0))
	other.Unlock(dvm.Const(0))
	if got := hintOf(t, []*dvm.Program{b.Build(), other.Build()}, 0); got != VerdictDisjoint {
		t.Fatalf("verdict = %s, want disjoint (single instance cannot self-race)", got)
	}
}

// TestFootprintMidSectionCommitDemotes: every operation that commits a
// speculation run mid-critical-section (converting speculative holds to
// conventional ownership) must demote the locks held across it.
func TestFootprintMidSectionCommitDemotes(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *dvm.Builder)
	}{
		{"cond-signal", func(b *dvm.Builder) { b.CondSignal(dvm.Const(9)) }},
		{"cond-broadcast", func(b *dvm.Builder) { b.CondBroadcast(dvm.Const(9)) }},
		{"barrier", func(b *dvm.Builder) { b.Barrier(dvm.Const(0)) }},
		{"spawn", func(b *dvm.Builder) { b.Spawn(dvm.Const(1)) }},
		{"join", func(b *dvm.Builder) { b.Join(dvm.Const(1)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := dvm.NewBuilder("fpt-" + c.name)
			b.Lock(dvm.Const(0))
			c.emit(b)
			b.Unlock(dvm.Const(0))
			if got := hintOf(t, []*dvm.Program{b.Build()}, 0); got != VerdictUnknown {
				t.Fatalf("verdict = %s, want unknown (lock held across %s)", got, c.name)
			}
		})
	}
}

// TestFootprintDynLockOperand: a dynamic lock operand makes critical
// sections the analysis cannot see. A classless operand demotes every known
// lock; a classed operand demotes only the locks it may alias.
func TestFootprintDynLockOperand(t *testing.T) {
	t.Run("classless-demotes-all", func(t *testing.T) {
		a := dvm.NewBuilder("fpt-known")
		a.Lock(dvm.Const(0))
		a.Store(dvm.Const(10), dvm.Const(1))
		a.Unlock(dvm.Const(0))
		d := dvm.NewBuilder("fpt-dynlock")
		dyn := dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) })
		d.Lock(dyn)
		d.Unlock(dyn)
		if got := hintOf(t, []*dvm.Program{a.Build(), d.Build()}, 0); got != VerdictUnknown {
			t.Fatalf("verdict = %s, want unknown (classless dynamic lock may alias lock 0)", got)
		}
	})
	t.Run("classed-spares-other-classes", func(t *testing.T) {
		a := dvm.NewBuilder("fpt-classed-known")
		a.Lock(dvm.Const(0).InClass("mutexes"))
		a.Store(dvm.Const(10), dvm.Const(1))
		a.Unlock(dvm.Const(0).InClass("mutexes"))
		d := dvm.NewBuilder("fpt-classed-dynlock")
		dyn := dvm.Dyn(func(t *dvm.Thread) int64 { return 32 + int64(t.ID) }).InClass("stripes")
		d.Lock(dyn)
		d.Unlock(dyn)
		progs := []*dvm.Program{a.Build(), d.Build()}
		if got := hintOf(t, progs, 0); got != VerdictDisjoint {
			t.Fatalf("verdict = %s, want disjoint (class %q cannot alias class %q)", got, "stripes", "mutexes")
		}
	})
	t.Run("classed-demotes-matching-class", func(t *testing.T) {
		a := dvm.NewBuilder("fpt-same-class-known")
		a.Lock(dvm.Const(0).InClass("stripes"))
		a.Store(dvm.Const(10), dvm.Const(1))
		a.Unlock(dvm.Const(0).InClass("stripes"))
		d := dvm.NewBuilder("fpt-same-class-dynlock")
		dyn := dvm.Dyn(func(t *dvm.Thread) int64 { return 32 + int64(t.ID) }).InClass("stripes")
		d.Lock(dyn)
		d.Unlock(dyn)
		if got := hintOf(t, []*dvm.Program{a.Build(), d.Build()}, 0); got != VerdictUnknown {
			t.Fatalf("verdict = %s, want unknown (same lock class may alias)", got)
		}
	})
}

// TestFootprintTruncationDemotes: blowing the per-PC state bound marks the
// program's footprints incomplete, demoting every lock it syncs on.
func TestFootprintTruncationDemotes(t *testing.T) {
	b := dvm.NewBuilder("fpt-blowup")
	b.Lock(dvm.Const(0))
	b.Store(dvm.Const(10), dvm.Const(1))
	b.Unlock(dvm.Const(0))
	// Each conditional acquisition doubles the reachable locksets at the
	// join points: 2^7 exceeds maxStatesPerPC (64). The leaked locks also
	// produce held-at-exit findings, which this test ignores.
	for i := 1; i <= 7; i++ {
		l := int64(i)
		b.If(func(t *dvm.Thread) bool { return t.ID == 0 }, func() {
			b.Lock(dvm.Const(l))
		})
	}
	p := b.Build()
	rep := Check([]*dvm.Program{p, p})
	if got := rep.Hints.Verdicts[0]; got != VerdictUnknown {
		t.Fatalf("verdict = %s, want unknown\nreason: %q", got, rep.Hints.Reasons[0])
	}
	if r := rep.Hints.Reasons[0]; !strings.Contains(r, "truncated") {
		t.Fatalf("reason = %q, want truncation witness", r)
	}
}

// TestSpecVerdictTextRoundTrip pins the JSON encoding of verdicts.
func TestSpecVerdictTextRoundTrip(t *testing.T) {
	for _, v := range []SpecVerdict{VerdictUnknown, VerdictDisjoint, VerdictConflicting} {
		b, err := v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back SpecVerdict
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("round-trip %s -> %s", v, back)
		}
	}
	var bad SpecVerdict
	if err := bad.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted a bogus verdict")
	}
}
