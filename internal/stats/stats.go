// Package stats collects the measurements the paper's evaluation reports:
// per-lock acquisition counts (Table 1), speculation statistics (Table 2),
// revert-cost samples (Figure 12), and per-thread wait time, the proxy for
// CPU utilization (Figure 10). It also provides the percentile and
// least-squares helpers used to render those tables and figures.
package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// LockCounter counts acquisitions per lock variable. Used with the pthreads
// engine to reproduce Table 1.
type LockCounter struct {
	counts []atomic.Int64
}

// NewLockCounter returns a counter for nlocks lock variables.
func NewLockCounter(nlocks int) *LockCounter {
	return &LockCounter{counts: make([]atomic.Int64, nlocks)}
}

// Inc records one acquisition of lock l.
func (c *LockCounter) Inc(l int64) {
	if c == nil {
		return
	}
	c.counts[l].Add(1)
}

// Summary aggregates the counter into Table 1's columns: the number of lock
// variables actually used, total acquisitions, and per-variable acquisition
// percentiles.
type Summary struct {
	Variables    int
	Acquisitions int64
	P50, P75     int64
	P95, Max     int64
}

// Summarize computes the Table 1 row for the collected counts. Locks that
// were never acquired are excluded, matching the paper's "# lock variables"
// column, which reflects locks the program actually initialized and used.
func (c *LockCounter) Summarize() Summary {
	var used []int64
	var total int64
	for i := range c.counts {
		if v := c.counts[i].Load(); v > 0 {
			used = append(used, v)
			total += v
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i] < used[j] })
	s := Summary{Variables: len(used), Acquisitions: total}
	if len(used) > 0 {
		s.P50 = Percentile(used, 50)
		s.P75 = Percentile(used, 75)
		s.P95 = Percentile(used, 95)
		s.Max = used[len(used)-1]
	}
	return s
}

// Percentile returns the p-th percentile of sorted (ascending) values using
// nearest-rank. Empty input yields 0; p is clamped into [0, 100], with NaN
// treated as 0 (float→int conversion of NaN is platform-defined, so it must
// never reach the rank computation).
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// RevertSample is one revert event: the time the revert took and the size of
// the discarded change set in words (Figure 12's axes).
type RevertSample struct {
	CostNs    int64
	ChangeSet int
}

// Spec accumulates the speculation statistics of Table 2 plus the revert
// samples of Figure 12. Counter fields are atomic because threads record
// events concurrently; revert samples are mutex-protected (reverts are rare
// and already expensive).
type Spec struct {
	TotalAcquires atomic.Int64 // every lock acquisition, speculative or not
	SpecAcquires  atomic.Int64 // acquisitions performed speculatively
	Runs          atomic.Int64 // speculation runs terminated
	Commits       atomic.Int64 // runs that committed
	Reverts       atomic.Int64 // runs that reverted
	CommittedCS   atomic.Int64 // critical sections inside committed runs
	Upgrades      atomic.Int64 // runs upgraded to irrevocable
	ExtendedRuns  atomic.Int64 // runs that went past the coarsening floor (earned coarsening)

	mu      sync.Mutex
	reverts []RevertSample
}

// AddRevertSample records one revert's cost and change-set size.
func (s *Spec) AddRevertSample(costNs int64, changeSet int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reverts = append(s.reverts, RevertSample{CostNs: costNs, ChangeSet: changeSet})
	s.mu.Unlock()
}

// RevertSamples returns a copy of the recorded revert samples.
func (s *Spec) RevertSamples() []RevertSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RevertSample, len(s.reverts))
	copy(out, s.reverts)
	return out
}

// SpecAcquirePct returns the percentage of lock acquisitions performed
// speculatively (Table 2, "% spec. acquisitions").
func (s *Spec) SpecAcquirePct() float64 {
	t := s.TotalAcquires.Load()
	if t == 0 {
		return 0
	}
	return 100 * float64(s.SpecAcquires.Load()) / float64(t)
}

// SuccessPct returns the percentage of speculation runs that committed
// (Table 2, "% spec. success").
func (s *Spec) SuccessPct() float64 {
	r := s.Runs.Load()
	if r == 0 {
		return 0
	}
	return 100 * float64(s.Commits.Load()) / float64(r)
}

// MeanRunCS returns the mean number of critical sections per committed
// speculation run (Table 2, "mean spec. length"), or NaN if none committed.
func (s *Spec) MeanRunCS() float64 {
	c := s.Commits.Load()
	if c == 0 {
		return math.NaN()
	}
	return float64(s.CommittedCS.Load()) / float64(c)
}

// Times tracks per-thread time spent blocked (waiting for the turn, parked
// on condition variables and barriers, or blocked on locks). Busy time =
// wall time − blocked time; aggregate busy fraction across threads is the
// CPU-utilization proxy of Figure 10.
type Times struct {
	blockedNs []atomic.Int64
}

// NewTimes returns a tracker for n threads, or nil if disabled.
func NewTimes(n int) *Times {
	return &Times{blockedNs: make([]atomic.Int64, n)}
}

// AddBlocked charges ns of blocked time to thread tid.
func (t *Times) AddBlocked(tid int, ns int64) {
	if t == nil {
		return
	}
	t.blockedNs[tid].Add(ns)
}

// BlockedNs returns the blocked time charged to thread tid, or 0 when tid is
// out of range or the tracker is disabled.
func (t *Times) BlockedNs(tid int) int64 {
	if t == nil || tid < 0 || tid >= len(t.blockedNs) {
		return 0
	}
	return t.blockedNs[tid].Load()
}

// TotalBlockedNs returns the summed blocked time across threads.
func (t *Times) TotalBlockedNs() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.blockedNs {
		n += t.blockedNs[i].Load()
	}
	return n
}

// UtilizationPct returns the busy fraction, in percent, given the run's wall
// time and thread count: 100 × (threads×wall − blocked) / (threads×wall).
// Zero or negative capacity (zero wall time, or no threads) reports 100: no
// time elapsed in which anything could have blocked, and callers derive
// blocked time as 100 − utilization, which must then be 0.
func (t *Times) UtilizationPct(wallNs int64, threads int) float64 {
	total := wallNs * int64(threads)
	if total <= 0 {
		return 100
	}
	busy := total - t.TotalBlockedNs()
	if busy < 0 {
		busy = 0
	}
	return 100 * float64(busy) / float64(total)
}

// LinReg fits y = slope*x + intercept by least squares.
func LinReg(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if n == 0 || len(xs) != len(ys) {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// DLCPercentiles computes nearest-rank percentiles of a set of DLC
// durations in one pass: vs is copied and sorted once, then each requested
// percentile is read with Percentile. Used for the open-loop simulation's
// latency summaries, where the values are exact deterministic counts (not
// histogram buckets), so the percentiles are exact and bit-stable too.
func DLCPercentiles(vs []int64, ps ...float64) []int64 {
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = Percentile(sorted, p)
	}
	return out
}

// Mean returns the arithmetic mean of vs, or NaN if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Stddev returns the sample standard deviation of vs.
func Stddev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var s float64
	for _, v := range vs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(vs)-1))
}
