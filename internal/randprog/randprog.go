// Package randprog generates random-but-checkable workloads for
// differential testing of the engines: every generated program is
// data-race-free and all its updates commute, so the final shared memory is
// schedule-independent and predictable on the host. Any engine —
// deterministic or not — must produce exactly the model's state, and the
// deterministic engines must additionally reproduce their synchronization
// traces run over run.
//
// The operation mix deliberately covers every engine code path that has
// distinct speculation behavior: exclusive locks (plain and nested, storing
// and read-only, and a read under an outer lock around a store under an inner
// one — a section invalidates concurrent runs only if it stored),
// shared-mode rwlock reads (reader conflict detection, read logging),
// atomics (the speculative-atomics extension), barriers (run termination at
// a rendezvous), system calls both inside a critical section (irrevocable
// upgrade, paper §3.5) and outside one (run termination), and a final
// condition-variable rendezvous (park/unpark, FIFO wake order).
//
// The generator is used by the property tests in internal/harness and by
// the cmd/lazydet-fuzz stress tool.
package randprog

import (
	"fmt"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// Config bounds the generated programs.
type Config struct {
	Threads      int
	Cells        int // lock-protected cells (one lock per cell)
	AtomicCells  int // cells updated only with atomics
	OpsPerThread int
	MaxBarriers  int
	// WithCondvars adds a final condvar rendezvous phase: every non-leader
	// thread increments a counter under a dedicated lock and signals;
	// thread 0 cond-waits until all have checked in.
	WithCondvars bool
	// WithRWLocks mixes in shared-mode (RLock/RUnlock) critical sections,
	// exercising reader admission and read-logged speculation.
	WithRWLocks bool
	// WithSyscalls mixes in irrevocable Syscall operations, both inside
	// critical sections (irrevocable upgrade) and between them (run
	// termination).
	WithSyscalls bool
	// OwnStreak, if positive, splices that many consecutive critical sections
	// on locks no other thread takes into every thread's plan, at a
	// seed-chosen position. No run inside a streak can fail validation, so
	// one of at least MinExtendingStreak sections takes a LazyDet thread
	// through the 64 committed runs that earn it extended runs (core's
	// runLimit) — a state the random mix alone never reaches — and into the
	// random operations after it with that state live.
	OwnStreak int
}

// MinExtendingStreak is the shortest OwnStreak that provably ends inside an
// extended run under full LazyDet (the zero core.SpecConfig): two runs may be lost at its start
// (one open from the random operations before it that reverts, one section
// run conventionally after that revert), then 64 runs of 8 sections commit,
// and the 9th section of the next run is past the floor.
const MinExtendingStreak = 8 + 1 + 64*8 + 9

// ownLocksPerThread is how many locks (each guarding one cell) a thread's
// streak cycles over.
const ownLocksPerThread = 3

// DefaultConfig returns moderate bounds with every operation class enabled,
// so differential runs exercise the condvar, rwlock and irrevocable paths by
// default.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:      threads,
		Cells:        32,
		AtomicCells:  8,
		OpsPerThread: 60,
		MaxBarriers:  3,
		WithCondvars: true,
		WithRWLocks:  true,
		WithSyscalls: true,
	}
}

type opKind int

const (
	opLockedAdd opKind = iota
	opAtomicAdd
	opBarrier
	opNestedAdd   // two cells under ordered nested locks
	opSharedRead  // RLock + load, no write: never conflicts with readers
	opLockedSysc  // locked add with a Syscall inside the critical section
	opBareSyscall // Syscall outside any critical section
	opPrivateAdd  // add to a thread-private cell under the shared private lock
	opOwnAdd      // add to a cell under a lock only this thread takes (OwnStreak)
	opLockedRead  // Lock + load, no store: an exclusive section that wrote nothing
	opReadThenAdd // load a cell under its lock, add to a second cell under a nested lock
)

type op struct {
	kind   opKind
	cell   int64
	cell2  int64
	delta  int64
	delta2 int64
	work   int // syscall cost
}

// validate rejects configurations the generator cannot honor.
func (cfg Config) validate() error {
	switch {
	case cfg.Threads < 1:
		return fmt.Errorf("randprog: thread count %d, want >= 1", cfg.Threads)
	case cfg.Cells < 2:
		return fmt.Errorf("randprog: %d lock-protected cells, want >= 2 (nested sections need two distinct cells)", cfg.Cells)
	case cfg.AtomicCells < 1:
		return fmt.Errorf("randprog: %d atomic cells, want >= 1", cfg.AtomicCells)
	case cfg.OpsPerThread < 0:
		return fmt.Errorf("randprog: %d ops per thread, want >= 0", cfg.OpsPerThread)
	case cfg.MaxBarriers < 0:
		return fmt.Errorf("randprog: %d max barriers, want >= 0", cfg.MaxBarriers)
	case cfg.OwnStreak < 0:
		return fmt.Errorf("randprog: own-lock streak of %d sections, want >= 0", cfg.OwnStreak)
	}
	return nil
}

// Generate builds a workload from the seed and returns it with the
// host-side model of the expected final memory. It fails on configurations
// it cannot generate a well-formed program for.
//
// Heap layout: cells [0, Cells) are lock-protected (lock i guards cell i),
// [Cells, Cells+AtomicCells) are atomic-only, cell Cells+AtomicCells is the
// condvar rendezvous counter (guarded by lock Cells), and the Threads cells
// after it are thread-private counters all guarded by the single lock
// Cells+1 — each section's footprint is a distinct constant address, so the
// footprint analysis classifies that lock Disjoint and the hinted engine
// must never revert on it (lazydet-fuzz property 9). With OwnStreak, thread
// t's ownLocksPerThread own cells follow, each guarded by a lock of its own
// after lock Cells+1.
func Generate(seed uint64, cfg Config) (*harness.Workload, map[int64]int64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	plans := make([][]op, cfg.Threads)
	rvCell := int64(cfg.Cells + cfg.AtomicCells)
	doorLock := int64(cfg.Cells)
	privLock := int64(cfg.Cells) + 1
	privBase := rvCell + 1
	heapWords, locks := privBase+int64(cfg.Threads), cfg.Cells+2
	ownBase, ownLock := heapWords, int64(locks)
	if cfg.OwnStreak > 0 {
		heapWords += int64(cfg.Threads * ownLocksPerThread)
		locks += cfg.Threads * ownLocksPerThread
	}
	expected := map[int64]int64{}
	r := seed
	next := func(n uint64) uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return (r >> 33) % n
	}
	barriers := 0
	for tid := 0; tid < cfg.Threads; tid++ {
		for i := 0; i < cfg.OpsPerThread; i++ {
			switch next(18) {
			case 0:
				if tid == 0 && barriers < cfg.MaxBarriers {
					barriers++
					for t2 := 0; t2 < cfg.Threads; t2++ {
						plans[t2] = append(plans[t2], op{kind: opBarrier})
					}
					continue
				}
				fallthrough
			case 1, 2, 3, 4, 5:
				c := int64(next(uint64(cfg.Cells)))
				d := int64(next(7)) + 1
				plans[tid] = append(plans[tid], op{kind: opLockedAdd, cell: c, delta: d})
				expected[c] += d
			case 6, 7:
				// Nested critical section over two ordered cells.
				a := int64(next(uint64(cfg.Cells)))
				b := int64(next(uint64(cfg.Cells)))
				if a == b {
					b = (b + 1) % int64(cfg.Cells)
				}
				if a > b {
					a, b = b, a
				}
				da := int64(next(5)) + 1
				db := int64(next(5)) + 1
				plans[tid] = append(plans[tid], op{kind: opNestedAdd, cell: a, cell2: b, delta: da, delta2: db})
				expected[a] += da
				expected[b] += db
			case 8, 9:
				c := int64(next(uint64(cfg.Cells)))
				if cfg.WithRWLocks {
					plans[tid] = append(plans[tid], op{kind: opSharedRead, cell: c})
					continue
				}
				d := int64(next(7)) + 1
				plans[tid] = append(plans[tid], op{kind: opLockedAdd, cell: c, delta: d})
				expected[c] += d
			case 10:
				c := int64(next(uint64(cfg.Cells)))
				d := int64(next(5)) + 1
				if cfg.WithSyscalls {
					plans[tid] = append(plans[tid], op{kind: opLockedSysc, cell: c, delta: d, work: int(next(4)) + 1})
				} else {
					plans[tid] = append(plans[tid], op{kind: opLockedAdd, cell: c, delta: d})
				}
				expected[c] += d
			case 11:
				if cfg.WithSyscalls {
					plans[tid] = append(plans[tid], op{kind: opBareSyscall, work: int(next(4)) + 1})
					continue
				}
				fallthrough
			case 12:
				d := int64(next(7)) + 1
				plans[tid] = append(plans[tid], op{kind: opPrivateAdd, delta: d})
				expected[privBase+int64(tid)] += d
				continue
			case 16:
				c := int64(next(uint64(cfg.Cells)))
				plans[tid] = append(plans[tid], op{kind: opLockedRead, cell: c})
			case 17:
				// Ordered like opNestedAdd, so the two never deadlock.
				a := int64(next(uint64(cfg.Cells)))
				b := int64(next(uint64(cfg.Cells)))
				if a == b {
					b = (b + 1) % int64(cfg.Cells)
				}
				if a > b {
					a, b = b, a
				}
				d := int64(next(5)) + 1
				plans[tid] = append(plans[tid], op{kind: opReadThenAdd, cell: a, cell2: b, delta2: d})
				expected[b] += d
			default:
				c := int64(cfg.Cells) + int64(next(uint64(cfg.AtomicCells)))
				d := int64(next(5)) + 1
				plans[tid] = append(plans[tid], op{kind: opAtomicAdd, cell: c, delta: d})
				expected[c] += d
			}
		}
	}

	// Own-lock streaks, drawn after every other operation so that a seed's
	// plan without them is the plan it always was.
	for tid := 0; tid < cfg.Threads && cfg.OwnStreak > 0; tid++ {
		streak := make([]op, cfg.OwnStreak)
		for i := range streak {
			k := int64(tid*ownLocksPerThread + i%ownLocksPerThread)
			streak[i] = op{kind: opOwnAdd, cell: ownBase + k, cell2: ownLock + k, delta: int64(next(7)) + 1}
			expected[ownBase+k] += streak[i].delta
		}
		at := int(next(uint64(len(plans[tid]) + 1)))
		plans[tid] = append(plans[tid][:at:at], append(streak, plans[tid][at:]...)...)
	}

	// Condvar rendezvous: non-leaders check in under the door lock and
	// signal; the leader waits until everyone has. The counter's final
	// value is schedule-independent.
	if cfg.WithCondvars && cfg.Threads > 1 {
		expected[rvCell] = int64(cfg.Threads - 1)
	}

	w := &harness.Workload{
		Name:      fmt.Sprintf("randprog-%x", seed),
		HeapWords: heapWords,
		Locks:     locks,
		Barriers:  1,
		Conds:     1,
		Programs: func(n int) []*dvm.Program {
			progs := make([]*dvm.Program, n)
			for tid := 0; tid < n; tid++ {
				b := dvm.NewBuilder(fmt.Sprintf("rnd-%d", tid))
				v := b.Reg()
				// addUnder emits one critical section on lock that adds delta
				// to cell.
				addUnder := func(lock, cell, delta int64) {
					b.Lock(dvm.Const(lock))
					b.Load(v, dvm.Const(cell))
					b.Store(dvm.Const(cell), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + delta }))
					b.Unlock(dvm.Const(lock))
				}
				for _, o := range plans[tid] {
					o := o
					switch o.kind {
					case opLockedAdd:
						addUnder(o.cell, o.cell, o.delta)
					case opNestedAdd:
						b.Lock(dvm.Const(o.cell))
						b.Lock(dvm.Const(o.cell2))
						b.Load(v, dvm.Const(o.cell))
						b.Store(dvm.Const(o.cell), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + o.delta }))
						b.Load(v, dvm.Const(o.cell2))
						b.Store(dvm.Const(o.cell2), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + o.delta2 }))
						b.Unlock(dvm.Const(o.cell2))
						b.Unlock(dvm.Const(o.cell))
					case opLockedRead:
						b.Lock(dvm.Const(o.cell))
						b.Load(v, dvm.Const(o.cell))
						b.Unlock(dvm.Const(o.cell))
					case opReadThenAdd:
						b.Lock(dvm.Const(o.cell))
						b.Load(v, dvm.Const(o.cell))
						addUnder(o.cell2, o.cell2, o.delta2)
						b.Unlock(dvm.Const(o.cell))
					case opSharedRead:
						b.RLock(dvm.Const(o.cell))
						b.Load(v, dvm.Const(o.cell))
						b.RUnlock(dvm.Const(o.cell))
					case opLockedSysc:
						b.Lock(dvm.Const(o.cell))
						b.Load(v, dvm.Const(o.cell))
						b.Store(dvm.Const(o.cell), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + o.delta }))
						b.Syscall(&dvm.Syscall{Name: "fuzz-cs", Work: o.work})
						b.Unlock(dvm.Const(o.cell))
					case opBareSyscall:
						b.Syscall(&dvm.Syscall{Name: "fuzz", Work: o.work})
					case opPrivateAdd:
						addUnder(privLock, privBase+int64(tid), o.delta)
					case opOwnAdd:
						addUnder(o.cell2, o.cell, o.delta)
					case opAtomicAdd:
						b.AtomicAdd(v, dvm.Const(o.cell), dvm.Const(o.delta))
					case opBarrier:
						b.Barrier(dvm.Const(0))
					}
				}
				if cfg.WithCondvars && n > 1 {
					if tid == 0 {
						// Leader: wait (rechecking under the lock, so no
						// lost wakeup) until all others checked in.
						b.Lock(dvm.Const(doorLock))
						b.Load(v, dvm.Const(rvCell))
						b.While(func(t *dvm.Thread) bool { return t.R(v) < int64(n-1) }, func() {
							b.CondWait(dvm.Const(0), dvm.Const(doorLock))
							b.Load(v, dvm.Const(rvCell))
						})
						b.Unlock(dvm.Const(doorLock))
					} else {
						b.Lock(dvm.Const(doorLock))
						b.Load(v, dvm.Const(rvCell))
						b.Store(dvm.Const(rvCell), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
						b.CondSignal(dvm.Const(0))
						b.Unlock(dvm.Const(doorLock))
					}
				}
				progs[tid] = b.Build()
			}
			return progs
		},
	}
	w.Validate = func(read func(int64) int64, _ int) error {
		for cell, want := range expected {
			if got := read(cell); got != want {
				return fmt.Errorf("cell %d = %d, want %d", cell, got, want)
			}
		}
		return nil
	}
	return w, expected, nil
}
