// Package telemetry is the unified metrics registry of the runtime: the one
// place the engines (internal/core), the versioned heap (internal/vheap),
// the memory pipeline (internal/mempipe) and the harness publish their
// measurements into, and the one place run reports, pinned fingerprints and
// Chrome-trace timelines are built from.
//
// The registry holds three metric kinds:
//
//   - counters: monotone int64 sums ("vheap.words_scanned", "turn.waits");
//   - gauges:   last-write-wins float64 values ("wall_ns");
//   - histograms: int64 samples bucketed into a fixed power-of-two layout,
//     so the bucket boundaries never depend on the data and the serialized
//     output of a deterministic run is itself deterministic.
//
// A *Recorder with spans enabled additionally keeps per-thread span lists —
// turn-grant waits, speculation runs, commits, reverts — stamped in DLC
// (deterministic logical clock) time rather than wall time. DLC stamps make
// the exported timeline a pure function of the execution's deterministic
// schedule: two runs of a deterministic engine export byte-identical traces.
//
// Like internal/invariant and internal/trace, the disabled state is the nil
// *Recorder: every method is nil-safe and publishers guard only with a nil
// pointer compare, so a run without telemetry pays nothing beyond that
// compare at each publication point.
package telemetry

import (
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// SpanKind names a span category on a thread's DLC timeline.
type SpanKind uint8

const (
	// SpanTurnWait covers a thread's wait for the deterministic turn, from
	// the DLC at which it first requested the turn to the DLC at which a
	// commit-capable turn was granted (parks behind an irrevocable run lie
	// in between; Arg counts them).
	SpanTurnWait SpanKind = iota + 1
	// SpanSpec covers a speculation run, BEGIN_i to termination.
	SpanSpec
	// SpanCommit marks a heap commit (instant, at the committing turn).
	SpanCommit
	// SpanRevert marks a speculation revert (instant).
	SpanRevert
)

// String returns the exporter's name for the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanTurnWait:
		return "turn-wait"
	case SpanSpec:
		return "speculation"
	case SpanCommit:
		return "commit"
	case SpanRevert:
		return "revert"
	}
	return "unknown"
}

// Span is one event on a thread's timeline. Begin and End are DLC stamps
// (End == Begin for instant events); Arg carries a kind-specific value —
// retry count for turn waits, critical sections for speculation runs, the
// commit sequence for commits, discarded words for reverts.
type Span struct {
	Kind       SpanKind
	Begin, End int64
	Arg        int64
}

// histBuckets is the number of fixed histogram buckets: bucket i counts
// samples whose value has bit length i, i.e. bucket 0 holds v <= 0, bucket i
// holds 2^(i-1) <= v < 2^i. The layout is total and data-independent, which
// is what keeps serialized histograms run-deterministic.
const histBuckets = 64

// Hist is one histogram's live state.
type hist struct {
	counts [histBuckets]int64
	sum    int64
	n      int64
}

// bucketOf returns the fixed bucket index for v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the smallest value landing in bucket i of the fixed
// layout (0 for bucket 0).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Recorder is the metrics registry. The nil *Recorder is the disabled
// recorder: every method is a no-op on it.
//
// Counter, gauge and histogram updates are safe for concurrent use from any
// thread. Span recording is per-thread: Span(tid, ...) may only be called by
// simulated thread tid, which lets each thread append to its own slice
// without locking — the same discipline internal/trace uses.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]float64
	hists    map[string]*hist

	spans [][]Span // per-thread; nil unless built WithSpans
}

// New returns an enabled recorder for counters, gauges and histograms.
func New() *Recorder {
	return &Recorder{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// NewWithSpans returns a recorder that additionally keeps per-thread span
// timelines for threads 0..threads-1 (the Chrome-trace exporter's input).
func NewWithSpans(threads int) *Recorder {
	r := New()
	r.spans = make([][]Span, threads)
	return r
}

// Enabled reports whether the recorder records anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SpansEnabled reports whether span timelines are kept.
func (r *Recorder) SpansEnabled() bool { return r != nil && r.spans != nil }

// Counter is one counter's cell. A publisher on a hot path resolves its cell
// once (Recorder.Handle) and adds to it without the registry's mutex or a
// string hash; the nil *Counter is the disabled recorder's handle.
type Counter struct {
	v atomic.Int64
	// used is set by the first Add: a cell that was resolved but never added
	// to stays out of snapshots, exactly as a name never passed to Count.
	used atomic.Bool
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
	if !c.used.Load() {
		c.used.Store(true)
	}
}

// Handle returns the named counter's cell, creating it on first use.
func (r *Recorder) Handle(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Count adds delta to the named counter: Handle(name).Add(delta), for
// publishers that count a few times per run.
func (r *Recorder) Count(name string, delta int64) { r.Handle(name).Add(delta) }

// SetGauge sets the named gauge.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one sample to the named histogram.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &hist{}
		r.hists[name] = h
	}
	h.counts[bucketOf(v)]++
	h.sum += v
	h.n++
	r.mu.Unlock()
}

// Span appends a span to thread tid's timeline. It must be called by
// simulated thread tid itself. A no-op unless the recorder was built
// WithSpans (and for out-of-range tids, so engines need not re-check).
func (r *Recorder) Span(tid int, kind SpanKind, begin, end, arg int64) {
	if r == nil || r.spans == nil || tid < 0 || tid >= len(r.spans) {
		return
	}
	r.spans[tid] = append(r.spans[tid], Span{Kind: kind, Begin: begin, End: end, Arg: arg})
}

// Counter returns the named counter's current value (0 when absent or nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c.v.Load()
	}
	return 0
}

// Gauge returns the named gauge's current value (0 when absent or nil).
func (r *Recorder) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Threads returns the number of span timelines (0 unless WithSpans).
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// ThreadSpans returns thread tid's recorded spans. Only meaningful after the
// run completes; the returned slice is the recorder's own storage.
func (r *Recorder) ThreadSpans(tid int) []Span {
	if r == nil || r.spans == nil || tid < 0 || tid >= len(r.spans) {
		return nil
	}
	return r.spans[tid]
}

// HistSnapshot is one histogram's serializable state. Buckets maps the
// bucket's lower bound (decimal string, for JSON key stability) to its
// count; only non-empty buckets appear.
type HistSnapshot struct {
	N       int64            `json:"n"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the registry, ready to serialize.
// encoding/json emits map keys sorted, so the encoded form of a snapshot of
// a deterministic run is itself deterministic.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry. Nil recorders snapshot to empty maps.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		if c.used.Load() {
			s.Counters[k] = c.v.Load()
		}
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		hs := HistSnapshot{N: h.n, Sum: h.sum, Buckets: map[string]int64{}}
		for i, c := range h.counts {
			if c != 0 {
				hs.Buckets[strconv.FormatInt(BucketLow(i), 10)] = c
			}
		}
		s.Histograms[k] = hs
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Recorder) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k, c := range r.counters {
		if c.used.Load() {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}
