package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"lazydet/internal/dvm"
)

// Outside-in tracing: the benchmark wraps the engine it hands to the VM and
// records one in-memory span per hook call — every call from the VM (layer
// dvm) into the engine (layer core). Nothing inside the program is touched;
// spans inside the engine are a later change (ROADMAP open item 1).

type spanKind uint8

const (
	spanRun     spanKind = iota // a thread, ThreadStart to the final ThreadExit
	spanLock                    // Lock, RLock
	spanUnlock                  // Unlock, RUnlock
	spanBarrier                 // BarrierWait
	spanExit                    // ThreadExit
	spanOther                   // ThreadStart and the hooks no workload here uses
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"run", "lock", "unlock", "barrier", "exit", "other"}

// span is one timed interval on one simulated thread. parent indexes the
// thread's span slice (the thread's run span for every hook span), -1 for
// the run span itself. Times are nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer holds the spans of one run. Thread t appends only to threads[t] and
// counts only in ticks[t], so recording takes no lock. reset keeps the
// capacity, so after the first traced run recording does not allocate.
//
// Tick is counted, not timed. It runs once per 64 retired instructions and
// takes ~15 ns, a third of what reading the clock twice costs: with a span on
// every Tick, tracing made own-lock three times slower and the tick time it
// reported was the clock's own. The ledger prices the counted calls at the
// dlc driver's unit cost instead.
type tracer struct {
	epoch   time.Time
	threads [threads][]span
	ticks   [threads]struct {
		calls int64
		_     [56]byte // one counter per cache line
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) reset() {
	tr.epoch = time.Now()
	for t := range tr.threads {
		tr.threads[t] = tr.threads[t][:0]
		tr.ticks[t].calls = 0
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a hook span under thread tid's run span and returns its index.
func (tr *tracer) begin(tid int, k spanKind) int {
	s := tr.threads[tid]
	tr.threads[tid] = append(s, span{kind: k, parent: 0, start: tr.now()})
	return len(s)
}

func (tr *tracer) end(tid, i int) { tr.threads[tid][i].end = tr.now() }

// tracedEngine forwards every dvm.Engine hook to the wrapped engine inside a
// span. It adds no synchronization and reads no engine state, so the schedule
// is the wrapped engine's own (the fidelity tests hold it to that).
type tracedEngine struct {
	inner dvm.Engine
	tr    *tracer
}

func (e *tracedEngine) Name() string        { return e.inner.Name() }
func (e *tracedEngine) Deterministic() bool { return e.inner.Deterministic() }

func (e *tracedEngine) ThreadStart(t *dvm.Thread) {
	tr := e.tr
	tr.threads[t.ID] = append(tr.threads[t.ID], span{kind: spanRun, parent: -1, start: tr.now()})
	i := tr.begin(t.ID, spanOther)
	e.inner.ThreadStart(t)
	tr.end(t.ID, i)
}

// ThreadResume is the optional hook dvm.Run calls on spawned threads.
func (e *tracedEngine) ThreadResume(t *dvm.Thread) {
	if r, ok := e.inner.(interface{ ThreadResume(*dvm.Thread) }); ok {
		i := e.tr.begin(t.ID, spanOther)
		r.ThreadResume(t)
		e.tr.end(t.ID, i)
	}
}

func (e *tracedEngine) ThreadExit(t *dvm.Thread) bool {
	i := e.tr.begin(t.ID, spanExit)
	done := e.inner.ThreadExit(t)
	e.tr.end(t.ID, i)
	if done {
		e.tr.end(t.ID, 0)
	}
	return done
}

func (e *tracedEngine) Tick(t *dvm.Thread, cost int64) {
	e.tr.ticks[t.ID].calls++
	e.inner.Tick(t, cost)
}

func (e *tracedEngine) Lock(t *dvm.Thread, l int64) {
	i := e.tr.begin(t.ID, spanLock)
	e.inner.Lock(t, l)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) Unlock(t *dvm.Thread, l int64) {
	i := e.tr.begin(t.ID, spanUnlock)
	e.inner.Unlock(t, l)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) RLock(t *dvm.Thread, l int64) {
	i := e.tr.begin(t.ID, spanLock)
	e.inner.RLock(t, l)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) RUnlock(t *dvm.Thread, l int64) {
	i := e.tr.begin(t.ID, spanUnlock)
	e.inner.RUnlock(t, l)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) BarrierWait(t *dvm.Thread, b int64) {
	i := e.tr.begin(t.ID, spanBarrier)
	e.inner.BarrierWait(t, b)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) CondWait(t *dvm.Thread, cv, l int64) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.CondWait(t, cv, l)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) CondSignal(t *dvm.Thread, cv int64) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.CondSignal(t, cv)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) CondBroadcast(t *dvm.Thread, cv int64) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.CondBroadcast(t, cv)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) Syscall(t *dvm.Thread, s *dvm.Syscall) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.Syscall(t, s)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) Atomic(t *dvm.Thread, a *dvm.Atomic) int64 {
	i := e.tr.begin(t.ID, spanOther)
	v := e.inner.Atomic(t, a)
	e.tr.end(t.ID, i)
	return v
}

func (e *tracedEngine) Spawn(t *dvm.Thread, target int) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.Spawn(t, target)
	e.tr.end(t.ID, i)
}

func (e *tracedEngine) Join(t *dvm.Thread, target int) {
	i := e.tr.begin(t.ID, spanOther)
	e.inner.Join(t, target)
	e.tr.end(t.ID, i)
}

// ---- span arithmetic -------------------------------------------------

// selfTime is span i's duration minus the part its child spans cover.
func selfTime(spans []span, i int) int64 {
	self := spans[i].end - spans[i].start
	for _, s := range spans {
		if int(s.parent) == i {
			self -= s.end - s.start
		}
	}
	return self
}

// hookTotals is one kind's share of a ledger: calls made, nanoseconds spent.
type hookTotals struct{ calls, ns int64 }

// ledger is the outside-in account of one traced run, summed over threads:
// thread wall time (the run spans), the time inside each kind of hook span,
// the counted Tick calls, and what is left of thread wall outside the spans —
// the VM's dispatch loop, the loads and stores it issues straight at the
// memory window, and the untimed Ticks.
type ledger struct {
	threadWall int64
	hooks      [numSpanKinds]hookTotals
	ticks      int64
	outside    int64
}

// hookNs is the time inside all hook spans.
func (l ledger) hookNs() int64 {
	var ns int64
	for _, h := range l.hooks {
		ns += h.ns
	}
	return ns
}

func ledgerOf(tr *tracer) ledger {
	var l ledger
	for t, spans := range tr.threads {
		if len(spans) == 0 {
			continue
		}
		l.threadWall += spans[0].end - spans[0].start
		l.outside += selfTime(spans, 0)
		l.ticks += tr.ticks[t].calls
		for _, s := range spans[1:] {
			l.hooks[s.kind].calls++
			l.hooks[s.kind].ns += s.end - s.start
		}
	}
	return l
}

// coveragePct is the share of thread wall time the ledger attributes to a
// layer, given how much of it stayed unattributed (an over-attributed ledger,
// negative remainder, counts as fully covered).
func coveragePct(threadWall, unattributed float64) float64 {
	if threadWall <= 0 {
		return 0
	}
	if unattributed < 0 {
		unattributed = 0
	}
	return 100 * (threadWall - unattributed) / threadWall
}

// writeSpans writes the tracer's spans as CSV, one row per span.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "thread,index,parent,name,start_ns,end_ns")
	for t, spans := range tr.threads {
		for i, s := range spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", t, i, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
