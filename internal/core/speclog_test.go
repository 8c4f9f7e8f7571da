package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lazydet/internal/dvm"
)

// logModel is the deliberately naive reference for the speculation log: the
// hash maps the flat log replaced, with the lifetime rules spelled out in the
// slowest obvious way. It models bookkeeping only — whether an acquisition
// speculates is read off the engine, never re-derived.
type logModel struct {
	order      []int64        // L_i in first-acquisition order
	count      map[int64]int  // acquisitions per logged lock
	write      map[int64]bool // taken exclusively at least once
	atoms      []int64        // atomically accessed locations, first-touch order
	wroteUnder map[int64]bool // lock guarded a store (WriteAware only)
	heldSpec   []int64
	heldConv   []int64
	acquires   map[int64]int64 // what the lock table's Acquires must total
}

func newLogModel() *logModel {
	return &logModel{count: map[int64]int{}, write: map[int64]bool{},
		wroteUnder: map[int64]bool{}, acquires: map[int64]int64{}}
}

func (m *logModel) specAcquire(l int64, write bool) {
	if m.count[l] == 0 {
		m.order = append(m.order, l)
	}
	m.count[l]++
	if write {
		m.write[l] = true
		m.heldSpec = append(m.heldSpec, l)
	}
}

func (m *logModel) convAcquire(l int64, write bool) {
	m.acquires[l]++
	if write {
		m.heldConv = append(m.heldConv, l)
	}
}

func dropLastOf(s []int64, l int64) []int64 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == l {
			return append(s[:i], s[i+1:]...)
		}
	}
	panic(fmt.Sprintf("model: lock %d not held", l))
}

func (m *logModel) touchAtomic(addr int64) {
	for _, a := range m.atoms {
		if a == addr {
			return
		}
	}
	m.atoms = append(m.atoms, addr)
}

func (m *logModel) store() {
	for _, l := range m.heldSpec {
		m.wroteUnder[l] = true
	}
	for _, l := range m.heldConv {
		m.wroteUnder[l] = true
	}
}

func (m *logModel) endRun(committed bool) {
	if committed {
		for _, l := range m.order {
			m.acquires[l] += int64(m.count[l])
		}
		m.heldConv = append(m.heldConv, m.heldSpec...) // still-held locks turn conventional
	}
	stillHeld := map[int64]bool{}
	for _, l := range m.heldConv {
		stillHeld[l] = true
	}
	for l := range m.wroteUnder {
		if !committed || !stillHeld[l] {
			delete(m.wroteUnder, l)
		}
	}
	m.order, m.atoms, m.heldSpec = nil, nil, nil
	m.count, m.write = map[int64]int{}, map[int64]bool{}
}

// diff compares the engine's flat log and held lists with the model.
func (m *logModel) diff(ts *tstate) error {
	if len(ts.log.locks) != len(m.order) {
		return fmt.Errorf("log has %d locks %v, model %v", len(ts.log.locks), ts.log.locks, m.order)
	}
	for i, r := range ts.log.locks {
		l := m.order[i]
		if r.lock != l || int(r.count) != m.count[l] || r.write != m.write[l] || r.wrote != m.wroteUnder[l] {
			return fmt.Errorf("log[%d] = %+v, model lock %d count %d write %v wrote %v",
				i, r, l, m.count[l], m.write[l], m.wroteUnder[l])
		}
	}
	if fmt.Sprint(ts.log.atoms) != fmt.Sprint(m.atoms) {
		return fmt.Errorf("atomic log %v, model %v", ts.log.atoms, m.atoms)
	}
	var held []int64
	for _, i := range ts.heldSpec {
		held = append(held, ts.log.locks[i].lock)
	}
	if fmt.Sprint(held) != fmt.Sprint(m.heldSpec) {
		return fmt.Errorf("heldSpec %v, model %v", held, m.heldSpec)
	}
	if len(ts.heldConv) != len(m.heldConv) {
		return fmt.Errorf("heldConv %v, model %v", ts.heldConv, m.heldConv)
	}
	for i, h := range ts.heldConv {
		if l := m.heldConv[i]; h.lock != l || h.wrote != m.wroteUnder[l] {
			return fmt.Errorf("heldConv[%d] = %+v, model lock %d wrote %v", i, h, l, m.wroteUnder[l])
		}
	}
	return nil
}

// TestSpecLogMatchesMapModel drives random acquire / nested acquire /
// read-then-write upgrade / atomic / store / release / commit / revert
// sequences through a one-thread LazyDet engine and checks the flat log
// against the map model after every step: equal counts, write and wrote
// flags, first-acquisition order, nothing stale after a run ends, and at the
// end the per-lock acquisition totals the commits booked.
func TestSpecLogMatchesMapModel(t *testing.T) {
	const locks, atomBase, steps = 6, 40, 400
	type hold struct {
		l     int64
		write bool
	}
	for _, writeAware := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := lazyCfg()
			if writeAware {
				cfg = waCfg()
			}
			r := newRig(t, cfg, 1, 64, locks, 0, 0)
			e := r.eng
			rng := rand.New(rand.NewSource(seed))
			m := newLogModel()
			var stack []hold
			holding := func(l int64) (read, write bool) {
				for _, h := range stack {
					if h.l == l {
						read, write = read || !h.write, write || h.write
					}
				}
				return
			}
			add := &dvm.Atomic{Kind: dvm.AtomicAdd, Delta: func(*dvm.Thread) int64 { return 1 }}

			// The closure runs on the simulated thread's goroutine, so it
			// reports through err instead of failing the test from there.
			var err error
			b := dvm.NewBuilder("speclog")
			b.Reg()
			b.Do(func(th *dvm.Thread) {
				ts := e.ts(th)
				// acquire takes l through the engine and books it in the
				// model according to what the engine did: a run that hit the
				// coarsening limit committed first, and ts.spec says whether
				// this acquisition was logged or taken conventionally.
				acquire := func(l int64, write bool) {
					before := r.spec.Commits.Load()
					if write {
						e.Lock(th, l)
					} else {
						e.RLock(th, l)
					}
					if r.spec.Commits.Load() != before {
						m.endRun(true)
					}
					if ts.spec {
						m.specAcquire(l, write)
					} else {
						m.convAcquire(l, write)
					}
					stack = append(stack, hold{l, write})
				}
				release := func(i int) { // any hold, not only the newest
					h := stack[i]
					stack = append(stack[:i], stack[i+1:]...)
					switch {
					case !h.write:
						e.RUnlock(th, h.l)
					case ts.spec:
						e.Unlock(th, h.l)
						m.heldSpec = dropLastOf(m.heldSpec, h.l)
					default:
						e.Unlock(th, h.l)
						m.heldConv = dropLastOf(m.heldConv, h.l)
						delete(m.wroteUnder, h.l)
					}
				}
				for step := 0; step < steps; step++ {
					l := rng.Int63n(locks)
					rd, wr := holding(l)
					switch op := rng.Intn(10); {
					case op < 3 && !rd && !wr && len(stack) < 3: // acquire, nested when the stack is non-empty
						acquire(l, rng.Intn(3) > 0)
					case op == 3 && ts.spec && rd && !wr: // read-then-write upgrade inside a run
						acquire(l, true)
					case op < 6 && len(stack) > 0:
						release(rng.Intn(len(stack)))
					case op == 6:
						add.Addr = func(*dvm.Thread) int64 { return atomBase + l%4 }
						spec := ts.spec
						e.Atomic(th, add)
						if spec {
							m.touchAtomic(atomBase + l%4)
						}
					case op == 7 && len(stack) > 0:
						th.Mem.Store(l, int64(step))
						if writeAware {
							m.store()
						}
					case op == 8 && ts.spec:
						if !e.terminateRun(th, ts) {
							err = fmt.Errorf("step %d: a lone thread's run failed validation", step)
							return
						}
						m.endRun(true)
					case op == 9 && ts.spec:
						pc := th.PC // the revert rewinds to the BEGIN snapshot; stay in this closure
						e.waitCommitTurn(th)
						e.revertLocked(th, ts)
						e.arb.ReleaseTurn(th.ID, syncCost)
						th.PC = pc
						m.endRun(false)
						stack = stack[:0] // every hold was speculative and is gone
					}
					if d := m.diff(ts); d != nil {
						err = fmt.Errorf("step %d: %v", step, d)
						return
					}
				}
				for len(stack) > 0 {
					release(len(stack) - 1)
				}
				if ts.spec {
					e.terminateRun(th, ts)
					m.endRun(true)
				}
				if d := m.diff(ts); d != nil {
					err = fmt.Errorf("after drain: %v", d)
				}
			})
			dvm.Run(e, []*dvm.Program{b.Build()})
			if err != nil {
				t.Fatalf("writeAware=%v seed %d: %v", writeAware, seed, err)
			}
			for l := int64(0); l < locks; l++ {
				if got := r.tbl.Locks[l].Acquires; got != m.acquires[l] {
					t.Fatalf("writeAware=%v seed %d: lock %d booked %d acquisitions, model %d", writeAware, seed, l, got, m.acquires[l])
				}
			}
		}
	}
}

// TestSpecRunSteadyStateAllocatesNothing: once its buffers exist, a whole run
// at the earned ceiling — begin, 64 critical sections over 64 distinct locks
// with a store each, commit — allocates nothing in the engine: logging is an
// append into retained records and the reset is a truncation.
func TestSpecRunSteadyStateAllocatesNothing(t *testing.T) {
	const n = runCeiling
	for _, cfg := range []Config{lazyCfg(), waCfg()} {
		r := newRig(t, cfg, 1, 64, n, 0, 0)
		r.eng.rec = nil // the trace recorder's own buffers are not under test
		b := dvm.NewBuilder("steady")
		b.Do(func(th *dvm.Thread) {
			ts := r.eng.ts(th)
			ts.pol.runHist = ^uint64(0) // the thread has earned the ceiling
			v := int64(0)
			allocs := testing.AllocsPerRun(100, func() {
				for l := int64(0); l < n; l++ {
					r.eng.Lock(th, l)
					v++
					th.Mem.Store(l, v)
					r.eng.Unlock(th, l)
				}
				if !ts.spec || ts.runCS != n || len(ts.log.locks) != n {
					t.Errorf("run shape: spec=%v runCS=%d log=%d, want one %d-section run", ts.spec, ts.runCS, len(ts.log.locks), n)
				}
				if !r.eng.terminateRun(th, ts) {
					t.Error("a lone thread's run failed validation")
				}
			})
			if allocs != 0 {
				t.Errorf("WriteAware=%v: %.1f allocations per steady-state run, want 0", cfg.Spec.WriteAware, allocs)
			}
		})
		dvm.Run(r.eng, []*dvm.Program{b.Build()})
	}
}

// BenchmarkSpecLogAcquire prices the log's backward scan at the sizes a run can
// reach: 8 records (a floor-length run), 64 (the earned ceiling) and 192 (the
// ceiling with three-deep nesting). "miss" acquires a lock the log does not
// hold yet — a full scan and an append, the worst case, which a run over
// distinct locks pays at every section; "newest" re-acquires the newest
// record, what a thread cycling over few locks pays.
func BenchmarkSpecLogAcquire(b *testing.B) {
	for _, n := range []int{8, 64, 192} {
		var g specLog
		for l := 0; l < n; l++ {
			g.acquire(int64(l), true)
		}
		b.Run(fmt.Sprintf("miss/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.acquire(-1, true)
				g.locks = g.locks[:n]
			}
		})
		b.Run(fmt.Sprintf("newest/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.acquire(int64(n-1), true)
			}
		})
	}
}
