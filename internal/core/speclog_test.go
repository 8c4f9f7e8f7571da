package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lazydet/internal/detsync"
	"lazydet/internal/dvm"
)

// logModel is the deliberately naive reference for the speculation log: the
// hash maps the flat log replaced, with the lifetime rules spelled out in the
// slowest obvious way. It models bookkeeping only — whether an acquisition
// speculates is read off the engine, never re-derived.
type logModel struct {
	order     []int64         // L_i in first-acquisition order
	write     map[int64]bool  // taken exclusively at least once
	wrote     map[int64]bool  // an exclusive section under it stored, released in the run
	atoms     []int64         // atomically accessed locations, first-touch order
	stores    int64           // the thread's stores and atomics so far
	held      []modelHold     // every hold, in acquisition order
	owner     map[int64]int32 // what each lock's Owner must be
	readers   map[int64]int32 // what each lock's Readers must be
	commitSeq map[int64]int64 // what each lock's LastCommitSeq must be
}

// modelHold is a hold with its mode, its store count at acquisition, and
// whether it is speculative: the engine keeps no such bit, because inside a
// run every hold is speculative and outside one none is.
type modelHold struct {
	heldLock
	spec bool
}

func newLogModel() *logModel {
	return &logModel{write: map[int64]bool{}, wrote: map[int64]bool{},
		owner: map[int64]int32{}, readers: map[int64]int32{}, commitSeq: map[int64]int64{}}
}

// take books l as conventionally held by the model's one thread (tid 0).
func (m *logModel) take(l int64, write bool) {
	if write {
		m.owner[l] = 1
	} else {
		m.readers[l]++
	}
}

func (m *logModel) acquire(l int64, write, spec bool) {
	h := heldLock{lock: l, stores: m.stores, write: write}
	if spec {
		if !m.logged(l) {
			m.order = append(m.order, l)
		}
		m.write[l] = m.write[l] || write
		h.rec = m.rec(l)
	} else {
		m.take(l, write)
	}
	m.held = append(m.held, modelHold{h, spec})
}

func (m *logModel) logged(l int64) bool {
	for _, o := range m.order {
		if o == l {
			return true
		}
	}
	return false
}

// rec is l's position in L_i, which a speculative hold records.
func (m *logModel) rec(l int64) int32 {
	for i, o := range m.order {
		if o == l {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("model: lock %d not logged", l))
}

// release drops the newest hold of l in the given mode. A speculative
// exclusive section that stored marks l written in the log; a conventional
// release frees l in the table, and moves its commit sequence to seq when the
// exclusive section stored.
func (m *logModel) release(l int64, write bool, seq int64) {
	for i := len(m.held) - 1; i >= 0; i-- {
		h := m.held[i]
		if h.lock != l || h.write != write {
			continue
		}
		m.held = append(m.held[:i], m.held[i+1:]...)
		stored := m.stores > h.stores
		switch {
		case h.spec:
			m.wrote[l] = m.wrote[l] || write && stored
		case !write:
			m.readers[l]--
		default:
			m.owner[l] = 0
			if stored {
				m.commitSeq[l] = seq
			}
		}
		return
	}
	panic(fmt.Sprintf("model: lock %d not held (write %v)", l, write))
}

func (m *logModel) touchAtomic(addr int64) {
	for _, a := range m.atoms {
		if a == addr {
			return
		}
	}
	m.atoms = append(m.atoms, addr)
}

// endRun ends the run; a committed one published at heap sequence seq, and
// its holds still open turn conventional in their modes, store counts and
// all. A reverted one loses its holds.
func (m *logModel) endRun(committed bool, seq int64) {
	var kept []modelHold
	for _, h := range m.held {
		switch {
		case !h.spec:
			kept = append(kept, h)
		case committed:
			if h.write && m.stores > h.stores { // its stores so far publish now
				m.wrote[h.lock] = true
			}
			m.take(h.lock, h.write)
			kept = append(kept, modelHold{h.heldLock, false})
		}
	}
	if committed {
		for _, l := range m.order {
			if m.wrote[l] {
				m.commitSeq[l] = seq
			}
		}
	}
	m.held = kept
	m.order, m.atoms = nil, nil
	m.write, m.wrote = map[int64]bool{}, map[int64]bool{}
}

// diff compares the engine's flat log, hold list and lock table with the
// model.
func (m *logModel) diff(ts *tstate, locks []detsync.Lock) error {
	if len(ts.log.locks) != len(m.order) {
		return fmt.Errorf("log has %d locks %v, model %v", len(ts.log.locks), ts.log.locks, m.order)
	}
	for i, r := range ts.log.locks {
		l := m.order[i]
		if r.lock != l || r.write != m.write[l] || r.wrote != m.wrote[l] {
			return fmt.Errorf("log[%d] = %+v, model lock %d write %v wrote %v", i, r, l, m.write[l], m.wrote[l])
		}
	}
	if fmt.Sprint(ts.log.atoms) != fmt.Sprint(m.atoms) {
		return fmt.Errorf("atomic log %v, model %v", ts.log.atoms, m.atoms)
	}
	held := make([]heldLock, len(m.held))
	for i, h := range m.held {
		if h.spec != ts.spec {
			return fmt.Errorf("model hold %+v speculative %v in a thread with spec=%v", h.heldLock, h.spec, ts.spec)
		}
		held[i] = h.heldLock
	}
	if fmt.Sprint(ts.held) != fmt.Sprint(held) {
		return fmt.Errorf("held %v, model %v", ts.held, held)
	}
	for l := range locks {
		st, id := &locks[l], int64(l)
		if st.Owner != m.owner[id] || st.Readers != m.readers[id] {
			return fmt.Errorf("lock %d: Owner %d Readers %d, model %d %d", l, st.Owner, st.Readers, m.owner[id], m.readers[id])
		}
		if st.LastCommitSeq != m.commitSeq[id] {
			return fmt.Errorf("lock %d: LastCommitSeq %d, model %d", l, st.LastCommitSeq, m.commitSeq[id])
		}
	}
	return nil
}

// TestSpecLogMatchesMapModel drives random acquire / nested acquire /
// read-then-write upgrade / atomic / store / release / commit / revert
// sequences through a one-thread LazyDet engine and checks the flat log
// against the map model after every step: equal write and wrote flags,
// first-acquisition order, the hold list with each hold's mode and
// acquisition store count, nothing stale after a run ends, every lock's Owner
// and Readers (so a hold, exclusive or shared, that outlives its run's
// commit is a conventional one), and every lock's commit sequence moved
// exactly by the releases and commits of sections that stored.
func TestSpecLogMatchesMapModel(t *testing.T) {
	const locks, atomBase, steps = 6, 40, 400
	type hold struct {
		l     int64
		write bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := newRig(t, lazyCfg(), 1, 64, locks, 0, 0)
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
					m.endRun(true, e.pipe.Seq())
				}
				m.acquire(l, write, ts.spec)
				stack = append(stack, hold{l, write})
			}
			release := func(i int) { // any hold, not only the newest
				h := stack[i]
				stack = append(stack[:i], stack[i+1:]...)
				if h.write {
					e.Unlock(th, h.l)
				} else {
					e.RUnlock(th, h.l)
				}
				m.release(h.l, h.write, e.pipe.Seq())
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
					th.Atomic(add) // counts as a store, like OpAtomic
					m.stores++
					if spec {
						m.touchAtomic(atomBase + l%4)
					}
				case op == 7 && len(stack) > 0:
					th.Store(l, int64(step))
					m.stores++
				case op == 8 && ts.spec:
					if !e.terminateRun(th, ts) {
						err = fmt.Errorf("step %d: a lone thread's run failed validation", step)
						return
					}
					m.endRun(true, e.pipe.Seq())
				case op == 9 && ts.spec:
					pc := th.PC // the revert rewinds to the BEGIN snapshot; stay in this closure
					e.waitCommitTurn(th)
					e.revertLocked(th, ts)
					e.arb.ReleaseTurn(th.ID, syncCost)
					th.PC = pc
					m.endRun(false, 0)
					stack = stack[:0] // every hold was speculative and is gone
				}
				if d := m.diff(ts, r.tbl.Locks); d != nil {
					err = fmt.Errorf("step %d: %v", step, d)
					return
				}
			}
			for len(stack) > 0 {
				release(len(stack) - 1)
			}
			if ts.spec {
				e.terminateRun(th, ts)
				m.endRun(true, e.pipe.Seq())
			}
			if d := m.diff(ts, r.tbl.Locks); d != nil {
				err = fmt.Errorf("after drain: %v", d)
			}
		})
		dvm.Run(e, []*dvm.Program{b.Build()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSpecRunSteadyStateAllocatesNothing: once its buffers exist, a whole run
// at the earned ceiling — begin, 64 critical sections over 64 distinct locks
// with a store each, commit — allocates nothing in the engine: logging is an
// append into retained records and the reset is a truncation.
func TestSpecRunSteadyStateAllocatesNothing(t *testing.T) {
	const n = runCeiling
	r := newRig(t, lazyCfg(), 1, 64, n, 0, 0)
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
				th.Store(l, v)
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
			t.Errorf("%.1f allocations per steady-state run, want 0", allocs)
		}
	})
	dvm.Run(r.eng, []*dvm.Program{b.Build()})
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
