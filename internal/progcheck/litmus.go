package progcheck

import (
	"sort"

	"lazydet/internal/dvm"
)

// LitmusCase is one entry of the known-answer corpus: a tiny program set
// with a seeded synchronization bug (or deliberately none), plus the finding
// classes the analyzer must report for it. The corpus pins the analyzer's
// behavior in both directions — every seeded bug must be flagged, and the
// clean variants must stay silent — and doubles as executable documentation
// of what each finding class means.
type LitmusCase struct {
	Name string
	// Want lists the expected finding classes, sorted; empty means the case
	// must produce zero findings.
	Want []Class
	// WantHints pins the footprint pass's speculation verdicts when non-nil:
	// the report's hint table must equal it exactly (an empty map means no
	// lock may be classified). Nil leaves the verdicts unchecked.
	WantHints map[int64]SpecVerdict
	// Build constructs the program set, one program per thread.
	Build func() []*dvm.Program
}

// Litmus returns the corpus, sorted by name.
func Litmus() []LitmusCase {
	cases := []LitmusCase{
		{
			Name: "abba-deadlock",
			Want: []Class{ClassDeadlock},
			Build: func() []*dvm.Program {
				a := dvm.NewBuilder("ab")
				a.Lock(dvm.Const(0))
				a.Lock(dvm.Const(1))
				a.Unlock(dvm.Const(1))
				a.Unlock(dvm.Const(0))
				b := dvm.NewBuilder("ba")
				b.Lock(dvm.Const(1))
				b.Lock(dvm.Const(0))
				b.Unlock(dvm.Const(0))
				b.Unlock(dvm.Const(1))
				return []*dvm.Program{a.Build(), b.Build()}
			},
		},
		{
			Name: "gate-locked-abba",
			Want: nil, // the outer gate lock serializes the cycle
			Build: func() []*dvm.Program {
				a := dvm.NewBuilder("gate-ab")
				a.Lock(dvm.Const(9))
				a.Lock(dvm.Const(0))
				a.Lock(dvm.Const(1))
				a.Unlock(dvm.Const(1))
				a.Unlock(dvm.Const(0))
				a.Unlock(dvm.Const(9))
				b := dvm.NewBuilder("gate-ba")
				b.Lock(dvm.Const(9))
				b.Lock(dvm.Const(1))
				b.Lock(dvm.Const(0))
				b.Unlock(dvm.Const(0))
				b.Unlock(dvm.Const(1))
				b.Unlock(dvm.Const(9))
				return []*dvm.Program{a.Build(), b.Build()}
			},
		},
		{
			Name: "racy-counter",
			Want: []Class{ClassRace},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("racy-inc")
				v := b.Reg()
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
				p := b.Build()
				return []*dvm.Program{p, p}
			},
		},
		{
			Name: "locked-counter",
			Want: nil,
			// The two replicas provably collide on cell 0 through a
			// non-commuting load/store pair: correct code, but speculation
			// through lock 1 is wasted work.
			WantHints: map[int64]SpecVerdict{1: VerdictConflicting},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("locked-inc")
				v := b.Reg()
				b.Lock(dvm.Const(1))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
				b.Unlock(dvm.Const(1))
				p := b.Build()
				return []*dvm.Program{p, p}
			},
		},
		{
			Name: "read-locked-writer",
			// The writer takes only the read mode of the lock: readers and
			// the writer can be inside simultaneously, so the race stands.
			Want: []Class{ClassRace},
			Build: func() []*dvm.Program {
				w := dvm.NewBuilder("rw-writer")
				w.RLock(dvm.Const(1))
				w.Store(dvm.Const(0), dvm.Const(7))
				w.RUnlock(dvm.Const(1))
				r := dvm.NewBuilder("rw-reader")
				v := r.Reg()
				r.RLock(dvm.Const(1))
				r.Load(v, dvm.Const(0))
				r.RUnlock(dvm.Const(1))
				return []*dvm.Program{w.Build(), r.Build()}
			},
		},
		{
			Name: "class-race",
			Want: []Class{ClassRace},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("class-writer")
				i := b.Reg()
				b.ForN(i, 4, func() {
					b.Store(dvm.FromReg(i).InClass("slots"), dvm.Const(1))
				})
				p := b.Build()
				return []*dvm.Program{p, p}
			},
		},
		{
			Name: "double-lock",
			Want: []Class{ClassDoubleLock},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("double-lock")
				b.Lock(dvm.Const(0))
				b.Lock(dvm.Const(0))
				b.Unlock(dvm.Const(0))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "unlock-without-lock",
			Want: []Class{ClassUnlockWithoutLock},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("unlock-free")
				b.Unlock(dvm.Const(0))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "cond-wait-no-mutex",
			Want: []Class{ClassCondWaitNoMutex},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("wait-bare")
				b.CondWait(dvm.Const(0), dvm.Const(1))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "lock-held-at-exit",
			Want: []Class{ClassHeldAtExit},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("leaky")
				b.Lock(dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Const(1))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "lock-held-on-one-path",
			// Only the If branch leaks the lock; path sensitivity must keep
			// the clean path from masking the leaky one.
			Want: []Class{ClassHeldAtExit},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("leaky-branch")
				b.Lock(dvm.Const(0))
				b.If(func(t *dvm.Thread) bool { return t.ID == 0 }, func() {
					b.Unlock(dvm.Const(0))
				})
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "rw-confusion",
			Want: []Class{ClassRWConfusion},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("mismatched")
				b.RLock(dvm.Const(0))
				b.Unlock(dvm.Const(0))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "atomic-clean",
			Want: nil, // atomic RMWs are engine-serialized
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("atomic-inc")
				v := b.Reg()
				b.AtomicAdd(v, dvm.Const(0), dvm.Const(1))
				p := b.Build()
				return []*dvm.Program{p, p}
			},
		},
		{
			Name: "barrier-phased",
			Want: nil, // the full barrier orders the write before the read
			Build: func() []*dvm.Program {
				w := dvm.NewBuilder("phase-writer")
				w.Store(dvm.Const(0), dvm.Const(42))
				w.Barrier(dvm.Const(0))
				r := dvm.NewBuilder("phase-reader")
				v := r.Reg()
				r.Barrier(dvm.Const(0))
				r.Load(v, dvm.Const(0))
				return []*dvm.Program{w.Build(), r.Build()}
			},
		},
		{
			Name: "unknown-lock-sound-fallback",
			// The lock object is dynamic, so the analyzer must stay silent
			// rather than guess (taint, not findings). Same for hints: no
			// statically known lock exists, so no verdict may be issued.
			Want:      nil,
			WantHints: map[int64]SpecVerdict{},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("dyn-lock")
				v := b.Reg()
				b.Lock(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) }))
				b.Load(v, dvm.Const(0))
				b.Store(dvm.Const(0), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
				b.Unlock(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) }))
				p := b.Build()
				return []*dvm.Program{p, p}
			},
		},
		{
			Name: "fp-disjoint-private",
			// Both threads serialize on lock 0 but touch different cells:
			// speculation through the lock can never fail validation.
			Want:      nil,
			WantHints: map[int64]SpecVerdict{0: VerdictDisjoint},
			Build: func() []*dvm.Program {
				a := dvm.NewBuilder("fp-priv-a")
				va := a.Reg()
				a.Lock(dvm.Const(0))
				a.Load(va, dvm.Const(1))
				a.Store(dvm.Const(1), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(va) + 1 }))
				a.Unlock(dvm.Const(0))
				b := dvm.NewBuilder("fp-priv-b")
				vb := b.Reg()
				b.Lock(dvm.Const(0))
				b.Load(vb, dvm.Const(2))
				b.Store(dvm.Const(2), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(vb) + 1 }))
				b.Unlock(dvm.Const(0))
				return []*dvm.Program{a.Build(), b.Build()}
			},
		},
		{
			Name: "fp-unknown-dyn-addr",
			// A store through a dynamic, classless address inside the
			// critical section makes the footprint unbounded: the lock must
			// demote to Unknown, never prove Disjoint.
			Want:      nil,
			WantHints: map[int64]SpecVerdict{1: VerdictUnknown},
			Build: func() []*dvm.Program {
				b := dvm.NewBuilder("fp-dyn-addr")
				b.Lock(dvm.Const(1))
				b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return int64(t.ID) + 8 }), dvm.Const(1))
				b.Unlock(dvm.Const(1))
				return []*dvm.Program{b.Build()}
			},
		},
		{
			Name: "fp-demote-condwait",
			// The mutex is held across a cond wait (and the signaler holds it
			// across the signal): a mid-section commit converts speculative
			// holds to conventional ownership, so the Disjoint validation
			// skip must not apply — even though no guarded access conflicts.
			Want:      nil,
			WantHints: map[int64]SpecVerdict{0: VerdictUnknown},
			Build: func() []*dvm.Program {
				w := dvm.NewBuilder("fp-waiter")
				w.Lock(dvm.Const(0))
				w.CondWait(dvm.Const(3), dvm.Const(0))
				w.Unlock(dvm.Const(0))
				s := dvm.NewBuilder("fp-signaler")
				s.Lock(dvm.Const(0))
				s.CondSignal(dvm.Const(3))
				s.Unlock(dvm.Const(0))
				return []*dvm.Program{w.Build(), s.Build()}
			},
		},
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases
}
