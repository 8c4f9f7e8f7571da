// Package detsync holds the deterministic synchronization objects shared by
// the eager (Consequence-style) and lazy (LazyDet) engines: the lock table
// with its per-lock commit sequences and the storage for per-lock speculation
// metadata, and the numbers of condition variables and barriers. The metadata
// is storage only: the speculation policy in internal/core (policy.go) seeds
// it and is its sole reader and writer. No object holds a wait queue: every
// thread parked on a lock, condition variable, barrier or irrevocable run
// waits in internal/core's one engine-level FIFO.
//
// All mutable fields are read and written only while the mutating thread
// holds the deterministic turn (see internal/dlc), except each thread's own
// speculation-metadata slots, which only that thread touches. Consecutive
// turn holders synchronize through the arbiter's mutex, so plain fields are
// safe and every state transition is deterministic.
package detsync

// Lock is the per-lock state and metadata. The paper allocates this "when
// the lock is initialized" (§3.2); here the whole table is sized up front.
type Lock struct {
	// Owner is tid+1 while held non-speculatively in exclusive mode,
	// 0 when free.
	Owner int32
	// Readers counts non-speculative shared-mode holders. Mutated only
	// at turns, like Owner.
	Readers int32
	// LastCommitSeq is the heap commit sequence after the most recent
	// commit of an exclusive critical section that stored under this lock
	// (conventional release or validated run). A speculation run whose heap
	// base predates it may have missed writes guarded by the lock and must
	// be reverted. It replaces the paper's G_l (§3.2), the DLC of the most
	// recent acquisition, which a section that only read moved too.
	LastCommitSeq int64
	// SpecHist is storage for the per-thread 64-bit success histories of
	// core's speculation policy (paper §3.4), one word per thread so
	// decisions stay deterministic (paper footnote 3). Allocated by NewTable,
	// seeded, read and written only by the policy.
	SpecHist []uint64
	// ConflictReverts counts speculation reverts attributed to this lock:
	// validation runs whose first failing check was one of this lock's
	// conflict checks. Reverts caused by atomic-location validation are
	// not attributed to any lock. Mutated only at turns, so the count is
	// a deterministic function of the schedule.
	ConflictReverts int64
}

// Table bundles the synchronization objects of one run.
type Table struct {
	NThreads int
	Locks    []Lock
	// Conds and Barriers are the numbers of condition variables and
	// barriers: neither has state of its own, only waiters in the engine's
	// queue. A barrier spans all NThreads threads.
	Conds, Barriers int
	// Atomics maps an atomically accessed heap address to the heap
	// commit sequence of its most recent committed update — the
	// location-level analogue of each lock's LastCommitSeq, used by the
	// speculative-atomics extension (paper §7). Mutated only at turns.
	Atomics map[int64]int64
	wake    []chan struct{}
}

// NewTable allocates nlocks locks for nthreads threads, with nconds condition
// variables and nbarriers barriers, and, if specMeta is true, the per-(lock,
// thread) speculation metadata, which core's policy seeds.
func NewTable(nthreads, nlocks, nconds, nbarriers int, specMeta bool) *Table {
	t := &Table{
		NThreads: nthreads,
		Locks:    make([]Lock, nlocks),
		Conds:    nconds,
		Barriers: nbarriers,
		Atomics:  make(map[int64]int64),
		wake:     make([]chan struct{}, nthreads),
	}
	for i := range t.wake {
		t.wake[i] = make(chan struct{}, 1)
	}
	if specMeta {
		// One flat backing array instead of a slice per lock: workloads with
		// thousands of locks (hash-table buckets) would otherwise pay nlocks
		// allocations here on every run.
		hist := make([]uint64, nlocks*nthreads)
		for i := range t.Locks {
			t.Locks[i].SpecHist = hist[i*nthreads : (i+1)*nthreads : (i+1)*nthreads]
		}
	}
	return t
}

// Wake unblocks thread tid (which must be blocked, or about to block, in
// WaitWake). Called by a turn holder after Unpark.
func (t *Table) Wake(tid int) { t.wake[tid] <- struct{}{} }

// WaitWake blocks the calling thread until another thread wakes it.
func (t *Table) WaitWake(tid int) { <-t.wake[tid] }
