package core

// lockRec is one lock's record in a run's log L_i.
type lockRec struct {
	lock  int64
	count int32 // acquisitions during the run, shared and exclusive
	write bool  // taken exclusively at least once
}

// specLog is the thread-local speculation log (§3.1): the locks a run
// touched, in first-acquisition order, and the locations it accessed
// atomically (§7 extension). Records are flat and found by a backward scan. A
// run logs at most 64 x nesting-depth locks (runCeiling; the floor's 8 x
// depth until the thread has earned it) and re-touches its newest entries
// most: a hit on the newest record costs 2.5 ns at any size, and a miss — the
// full scan that every section of a run over distinct locks pays — 8 / 55 /
// 140 ns at 8 / 64 / 192 records (BenchmarkSpecLogAcquire, 2.1 GHz Xeon), so
// a 64-section run over 64 distinct locks averages 28 ns of scan per section:
// what one map access costs, without a map's clearing at reset. The buffers
// are retained across runs: logging is an append, reset is two truncations,
// and a steady-state run allocates nothing.
type specLog struct {
	locks []lockRec
	atoms []int64
}

// acquire logs an acquisition of l and returns the index of its record.
func (g *specLog) acquire(l int64, write bool) int {
	for i := len(g.locks) - 1; i >= 0; i-- {
		if r := &g.locks[i]; r.lock == l {
			r.count++
			r.write = r.write || write
			return i
		}
	}
	g.locks = append(g.locks, lockRec{lock: l, count: 1, write: write})
	return len(g.locks) - 1
}

// hasAtomic reports whether the run already accessed addr atomically.
func (g *specLog) hasAtomic(addr int64) bool {
	for i := len(g.atoms) - 1; i >= 0; i-- {
		if g.atoms[i] == addr {
			return true
		}
	}
	return false
}

// touchAtomic logs an atomically accessed location, once per run.
func (g *specLog) touchAtomic(addr int64) {
	if !g.hasAtomic(addr) {
		g.atoms = append(g.atoms, addr)
	}
}

// reset empties the log for the next run, keeping its buffers.
func (g *specLog) reset() {
	g.locks = g.locks[:0]
	g.atoms = g.atoms[:0]
}
