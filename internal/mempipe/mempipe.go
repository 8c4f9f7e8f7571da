// Package mempipe is the shared memory pipeline behind every engine: one
// engine-facing interface over the two memory substrates — versioned
// (internal/vheap, strong determinism: threads are isolated between
// synchronization points and publish at deterministic commits) and flat
// (internal/shmem, the weak and nondeterministic engines: every store is
// immediately global and publication is a no-op).
//
// Before this layer each engine file drove its own copy of the
// commit/update choreography, guarded by mode checks. Routing all of them
// through Pipeline/Thread means the five engines exercise identical
// publication code — the paper's "one code base, many engines" comparison
// structure — and the dirty-word commit path (vheap) has exactly one caller
// to keep correct.
//
// The flat pipeline answers the same questions degenerately: it is never
// dirty, Publish commits nothing, Refresh has nothing to re-base, and its
// sequence number is always 0; every visibility point answers with the zero
// Outcome.
package mempipe

import (
	"lazydet/internal/shmem"
	"lazydet/internal/telemetry"
	"lazydet/internal/vheap"
)

// Pipeline is one engine's route to shared memory. Implementations are
// NewVersioned (vheap) and NewFlat (shmem).
type Pipeline interface {
	// NewThread opens thread tid's private window onto the memory. Engines
	// call it once per thread, at thread start.
	NewThread(tid int) Thread
	// Seq returns the newest published commit sequence — always 0 for flat
	// memory, where stores are global the moment they happen.
	Seq() int64
	// ReadCommitted reads the newest published value of addr, bypassing
	// any thread's unpublished writes.
	ReadCommitted(addr int64) int64
}

// Point is a visibility point: one of the closed list of places where a
// thread's writes may become visible to other threads and other threads'
// writes to it (paper §2: "only as a result of synchronization operations").
// Each point fixes which of publish / settle / drop / re-base a window
// performs, in that order; DESIGN.md's "Visibility points" table maps the
// engine's synchronization operations onto them.
type Point uint8

const (
	// Acquire (lock and rwlock acquisition, both halves of an eager atomic, an
	// irrevocable run's commit): publish the window's own unpublished
	// writes and re-base on the newest state. The window's own deferred
	// publication, if any, stays outstanding, so the re-base keeps the dirty
	// set.
	Acquire Point = iota
	// Release (unlock, rwlock release, a validated run's commit): Acquire,
	// except that with mayDefer the publication is deferred — staged at the
	// exact sequence the commit would have used — instead of performed.
	Release
	// Signal (condvar signal/broadcast, spawn, join, the last barrier
	// arrival): publish, settle every outstanding deferred publication (the
	// window's own included), drop the now fully published dirty set, and
	// re-base.
	Signal
	// Park (condvar wait, barrier arrival, thread exit): Signal without the
	// re-base — the wake path re-bases on a pinned sequence (RefreshTo), never
	// on "newest at the wall-clock wake moment".
	Park
	// Upgrade (irrevocable upgrade of a speculation run): settle only. The
	// run's own writes stay private until it commits.
	Upgrade
)

// Outcome is what a visibility point published, for the engine to record.
type Outcome struct {
	// Seq is the commit sequence the window's writes were published at —
	// performed (Committed) or reserved (Staged). Zero when neither.
	Seq int64
	// Committed reports a physical commit of the window's writes at Seq.
	Committed bool
	// Staged reports a deferred publication at Seq: the sequence is reserved
	// and traced now, the merge happens at the first point another thread
	// could observe it.
	Staged bool
}

// Thread is one thread's window onto the pipeline's memory. The VM's load
// and store instructions dispatch straight to it (it satisfies
// dvm.MemWindow); the engines drive Sync at synchronization points.
type Thread interface {
	// Load reads addr: the thread's own unpublished write if there is one,
	// otherwise the published state the window is based on.
	Load(addr int64) int64
	// Store writes addr. Versioned windows buffer the write privately and
	// record the word in the page's dirty bitmap; flat windows write
	// through immediately.
	Store(addr, val int64)
	// StoreDirty writes addr and guarantees the word wins the merge at
	// publication even if the stored value equals the window's base
	// contents (irrevocable atomics). Equivalent to Store on flat memory.
	StoreDirty(addr, val int64)

	// Sync performs visibility point p. mayDefer is the engine's elision
	// policy decision and is read at Release only. The caller holds the
	// deterministic turn. Flat windows have nothing to publish or re-base
	// and answer every point with the zero Outcome.
	Sync(p Point, mayDefer bool) Outcome
	// Deferred reports the fate of the window's most recent deferred
	// publication: flushed when another publication has applied it. If it was
	// flushed and the window holds no writes since, the retained dirty set is
	// fully published; Deferred releases it and reports dropped. The engine's
	// elision policy asks before it decides the next Release. Always false on
	// flat memory.
	Deferred() (flushed, dropped bool)

	// Publish makes the window's writes globally visible. It reports the
	// commit sequence it published at, and false if there was nothing to
	// publish (or the memory is flat and publication is meaningless).
	Publish() (seq int64, committed bool)
	// Refresh re-bases the window on the newest published state. The dirty
	// set must be empty (publish or revert first).
	Refresh()
	// RefreshTo re-bases the window on a specific commit sequence — used
	// when a woken thread must adopt exactly the state its waker published
	// (barrier releases, spawns), where "newest at wake time" would be a
	// wall-clock race. No-op on flat memory (seq is always 0 there).
	RefreshTo(seq int64)
	// BaseSeq returns the commit sequence the window reads at.
	BaseSeq() int64

	// SnapshotDirtyInto deep-copies the unpublished write set into s at a
	// speculation run's begin, recycling its buffers (nil s allocates a
	// fresh snapshot) so steady-state runs allocate nothing. Flat memory has
	// no write set: it returns s unchanged (core.New rejects speculation
	// without versioned isolation, so the engines never ask).
	SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot
	// RevertTo discards the run's writes and reinstates the snapshot,
	// returning the number of discarded speculative words. Zero on flat
	// memory, under the same core.New rule.
	RevertTo(s *vheap.DirtySnapshot) (discarded int)

	// Audit verifies the window's dirty tracking, page tables and deferred
	// publication (vheap.View.AuditDirty, AuditTables, AuditDeferred),
	// naming the invariant rule the first failure breaks. Nil on flat
	// memory, which tracks nothing.
	Audit() (rule string, err error)
	// Close releases the window at thread exit.
	Close()
}

// versioned is the strong-determinism pipeline over a versioned heap.
type versioned struct {
	h   *vheap.Heap
	tel *telemetry.Recorder
}

// NewVersioned builds the pipeline the strong engines (Consequence, LazyDet)
// run on: thread windows are vheap views, publication is a versioned commit.
// tel, if non-nil, receives per-publication metrics ("mempipe.publishes" and
// the "mempipe.publish_dirty_words" histogram of dirty-set sizes at
// publication); nil disables them at the cost of a pointer compare.
func NewVersioned(h *vheap.Heap, tel *telemetry.Recorder) Pipeline { return versioned{h, tel} }

func (p versioned) NewThread(tid int) Thread {
	return &versionedThread{v: p.h.NewView(), tel: p.tel, publishes: p.tel.Handle("mempipe.publishes")}
}
func (p versioned) Seq() int64                     { return p.h.Seq() }
func (p versioned) ReadCommitted(addr int64) int64 { return p.h.ReadCommitted(addr) }

type versionedThread struct {
	v         *vheap.View
	tel       *telemetry.Recorder
	publishes *telemetry.Counter // tel's "mempipe.publishes", resolved once
}

func (t *versionedThread) Load(addr int64) int64               { return t.v.Load(addr) }
func (t *versionedThread) Store(addr, val int64)               { t.v.Store(addr, val) }
func (t *versionedThread) StoreDirty(addr, val int64)          { t.v.StoreDirty(addr, val) }
func (t *versionedThread) Refresh()                            { t.v.Update() }
func (t *versionedThread) RefreshTo(seq int64)                 { t.v.UpdateTo(seq) }
func (t *versionedThread) BaseSeq() int64                      { return t.v.BaseSeq() }
func (t *versionedThread) RevertTo(s *vheap.DirtySnapshot) int { return t.v.RevertTo(s) }
func (t *versionedThread) Close()                              { t.v.Close() }

func (t *versionedThread) SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot {
	return t.v.SnapshotDirtyInto(s)
}

func (t *versionedThread) Sync(p Point, mayDefer bool) Outcome {
	v := t.v
	switch {
	case p == Upgrade:
		v.SettleDeferred()
		return Outcome{}
	case p == Release && mayDefer:
		// StagePublish re-bases with the dirty set kept, and reserves a
		// sequence only when something is unpublished — exactly when a commit
		// would have used one.
		seq, staged := v.StagePublish()
		if staged {
			t.countPublish()
		}
		return Outcome{Seq: seq, Staged: staged}
	}
	seq, committed := t.Publish()
	switch p {
	case Acquire, Release:
		v.RefreshDirty()
	case Signal, Park:
		v.SettleDeferred()
		v.DropClean()
		if p == Signal {
			v.Update()
		}
	}
	return Outcome{Seq: seq, Committed: committed}
}

func (t *versionedThread) Deferred() (flushed, dropped bool) {
	if !t.v.StageFlushed() {
		return false, false
	}
	if t.v.Unpublished() {
		return true, false
	}
	// Dropping now keeps later publications from re-staging or re-committing
	// long-silent frames.
	t.v.DropClean()
	return true, true
}

func (t *versionedThread) Publish() (int64, bool) {
	// Unpublished, not DirtyPages: a window retains its dirty set across
	// deferred publications, and a point with no writes since the last one
	// must publish nothing — exactly when an eager dirty set would have been
	// empty.
	if !t.v.Unpublished() {
		return 0, false
	}
	t.countPublish()
	seq, _ := t.v.Commit()
	return seq, true
}

// countPublish records one publication, performed or deferred, and the
// dirty-set size it found.
func (t *versionedThread) countPublish() {
	if t.tel != nil {
		t.publishes.Add(1)
		t.tel.Observe("mempipe.publish_dirty_words", int64(t.v.DirtyWords()))
	}
}

func (t *versionedThread) Audit() (string, error) {
	if err := t.v.AuditDirty(); err != nil {
		return "commit-dirty-tracking", err
	}
	if err := t.v.AuditTables(); err != nil {
		return "view-page-table", err
	}
	return "deferred-publish", t.v.AuditDeferred()
}

// flat is the unversioned pipeline over plain shared memory.
type flat struct{ m *shmem.Mem }

// NewFlat builds the pipeline the weak and nondeterministic engines run on:
// no isolation, no versions, publication is a no-op — so there is nothing to
// measure and flat pipelines take no recorder.
func NewFlat(m *shmem.Mem) Pipeline { return flat{m} }

func (p flat) NewThread(tid int) Thread       { return flatThread{p.m} }
func (p flat) Seq() int64                     { return 0 }
func (p flat) ReadCommitted(addr int64) int64 { return p.m.ReadCommitted(addr) }

type flatThread struct{ m *shmem.Mem }

func (t flatThread) Load(addr int64) int64      { return t.m.Load(addr) }
func (t flatThread) Store(addr, val int64)      { t.m.Store(addr, val) }
func (t flatThread) StoreDirty(addr, val int64) { t.m.Store(addr, val) }
func (t flatThread) Sync(Point, bool) Outcome   { return Outcome{} }
func (t flatThread) Deferred() (bool, bool)     { return false, false }
func (t flatThread) Publish() (int64, bool)     { return 0, false }
func (t flatThread) Refresh()                   {}
func (t flatThread) RefreshTo(seq int64)        {}
func (t flatThread) BaseSeq() int64             { return 0 }
func (t flatThread) Audit() (string, error)     { return "", nil }
func (t flatThread) Close()                     {}

func (t flatThread) SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot { return s }
func (t flatThread) RevertTo(*vheap.DirtySnapshot) int                             { return 0 }
