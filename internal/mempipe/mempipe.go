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
// sequence number is always 0. The speculation operations
// (SnapshotDirtyInto, RevertTo) panic — speculation without write isolation cannot be rolled
// back, and the engines never speculate in weak modes.
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
	// Shards reports how many page-range shards publications are routed
	// across (per-shard commit locks in the versioned heap). Flat memory is
	// unsharded: every store lands directly, so it reports 1.
	Shards() int
	// ReadCommitted reads the newest published value of addr, bypassing
	// any thread's unpublished writes.
	ReadCommitted(addr int64) int64
}

// Thread is one thread's window onto the pipeline's memory. The VM's load
// and store instructions dispatch straight to it (it satisfies
// dvm.MemWindow); the engines drive the publication methods at
// synchronization points.
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

	// Dirty reports whether the window holds unpublished writes. Always
	// false for flat memory.
	Dirty() bool
	// DirtyWords counts unpublished words differing from the window's base.
	DirtyWords() int
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

	// StagePublish defers publication (same-owner elision, vheap stage.go):
	// when the window holds writes not yet covered by a publication it
	// reserves the next commit sequence and stages them, otherwise it only
	// re-bases on the newest state; the dirty set is retained either way and
	// other windows' deferred publications are flushed first. Returns the
	// reserved sequence and whether a new publication was staged. On flat
	// memory publication is meaningless, so (0, false).
	StagePublish() (seq int64, staged bool)
	// RefreshDirty re-bases the window on the newest published state while
	// keeping the dirty set — Refresh for a window with deferred state.
	// No-op on flat memory.
	RefreshDirty()
	// StageFlushed reports whether the window's most recent deferred
	// publication was applied by another thread — the elision miss signal
	// the adaptive policy feeds on. Always false on flat memory.
	StageFlushed() bool
	// Unpublished reports whether the window holds writes not yet covered by
	// any publication, eager or deferred. Always false on flat memory.
	Unpublished() bool
	// SettleDeferred applies every outstanding deferred publication, the
	// window's own included — the engine's move at the turn before a thread
	// parks, spawns, or exits. No-op on flat memory.
	SettleDeferred()
	// DropClean releases the window's retained dirty set once everything in
	// it has been published (no writes since the last publication event, no
	// outstanding deferred publication). No-op on flat memory.
	DropClean()
	// AuditDeferred verifies that the window's deferred publication is still
	// a prefix of its dirty set (the deferred-publish invariant); nil on
	// flat memory.
	AuditDeferred() error

	// SnapshotDirtyInto deep-copies the unpublished write set into s at a
	// speculation run's begin, recycling its buffers (nil s allocates a
	// fresh snapshot) so steady-state runs allocate nothing. Panics on flat
	// memory.
	SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot
	// RevertTo discards the run's writes and reinstates the snapshot,
	// returning the number of discarded speculative words. Panics on flat
	// memory.
	RevertTo(s *vheap.DirtySnapshot) (discarded int)

	// AuditDirty verifies the window's dirty tracking (see
	// vheap.View.AuditDirty); nil on flat memory, which tracks nothing.
	AuditDirty() error
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
	return &versionedThread{v: p.h.NewView(), tel: p.tel}
}
func (p versioned) Seq() int64                     { return p.h.Seq() }
func (p versioned) Shards() int                    { return p.h.Shards() }
func (p versioned) ReadCommitted(addr int64) int64 { return p.h.ReadCommitted(addr) }

type versionedThread struct {
	v   *vheap.View
	tel *telemetry.Recorder
}

func (t *versionedThread) Load(addr int64) int64               { return t.v.Load(addr) }
func (t *versionedThread) Store(addr, val int64)               { t.v.Store(addr, val) }
func (t *versionedThread) StoreDirty(addr, val int64)          { t.v.StoreDirty(addr, val) }
func (t *versionedThread) Dirty() bool                         { return t.v.DirtyPages() != 0 }
func (t *versionedThread) DirtyWords() int                     { return t.v.DirtyWords() }
func (t *versionedThread) Refresh()                            { t.v.Update() }
func (t *versionedThread) RefreshTo(seq int64)                 { t.v.UpdateTo(seq) }
func (t *versionedThread) BaseSeq() int64                      { return t.v.BaseSeq() }
func (t *versionedThread) RevertTo(s *vheap.DirtySnapshot) int { return t.v.RevertTo(s) }
func (t *versionedThread) AuditDirty() error                   { return t.v.AuditDirty() }
func (t *versionedThread) AuditTables() error                  { return t.v.AuditTables() }
func (t *versionedThread) Close()                              { t.v.Close() }

func (t *versionedThread) RefreshDirty()        { t.v.RefreshDirty() }
func (t *versionedThread) StageFlushed() bool   { return t.v.StageFlushed() }
func (t *versionedThread) Unpublished() bool    { return t.v.Unpublished() }
func (t *versionedThread) SettleDeferred()      { t.v.SettleDeferred() }
func (t *versionedThread) DropClean()           { t.v.DropClean() }
func (t *versionedThread) AuditDeferred() error { return t.v.AuditDeferred() }

func (t *versionedThread) SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot {
	return t.v.SnapshotDirtyInto(s)
}

func (t *versionedThread) Publish() (int64, bool) {
	// Unpublished, not DirtyPages: an elided window retains its dirty set
	// across staged publications, and a force point with no writes since the
	// last stage must publish nothing — exactly when the eager path's dirty
	// set would have been empty. The two tests coincide in eager operation.
	if !t.v.Unpublished() {
		return 0, false
	}
	if t.tel != nil {
		t.tel.Count("mempipe.publishes", 1)
		t.tel.Observe("mempipe.publish_dirty_words", int64(t.v.DirtyWords()))
	}
	seq, _ := t.v.Commit()
	return seq, true
}

func (t *versionedThread) StagePublish() (int64, bool) {
	seq, staged := t.v.StagePublish()
	if staged && t.tel != nil {
		t.tel.Count("mempipe.publishes", 1)
		t.tel.Observe("mempipe.publish_dirty_words", int64(t.v.DirtyWords()))
	}
	return seq, staged
}

// flat is the unversioned pipeline over plain shared memory.
type flat struct{ m *shmem.Mem }

// NewFlat builds the pipeline the weak and nondeterministic engines run on:
// no isolation, no versions, publication is a no-op — so there is nothing to
// measure and flat pipelines take no recorder.
func NewFlat(m *shmem.Mem) Pipeline { return flat{m} }

func (p flat) NewThread(tid int) Thread       { return flatThread{p.m} }
func (p flat) Seq() int64                     { return 0 }
func (p flat) Shards() int                    { return 1 }
func (p flat) ReadCommitted(addr int64) int64 { return p.m.ReadCommitted(addr) }

type flatThread struct{ m *shmem.Mem }

func (t flatThread) Load(addr int64) int64       { return t.m.Load(addr) }
func (t flatThread) Store(addr, val int64)       { t.m.Store(addr, val) }
func (t flatThread) StoreDirty(addr, val int64)  { t.m.Store(addr, val) }
func (t flatThread) Dirty() bool                 { return false }
func (t flatThread) DirtyWords() int             { return 0 }
func (t flatThread) Publish() (int64, bool)      { return 0, false }
func (t flatThread) StagePublish() (int64, bool) { return 0, false }
func (t flatThread) Refresh()                    {}
func (t flatThread) RefreshTo(seq int64)         {}
func (t flatThread) RefreshDirty()               {}
func (t flatThread) StageFlushed() bool          { return false }
func (t flatThread) Unpublished() bool           { return false }
func (t flatThread) SettleDeferred()             {}
func (t flatThread) DropClean()                  {}
func (t flatThread) AuditDeferred() error        { return nil }
func (t flatThread) BaseSeq() int64              { return 0 }
func (t flatThread) AuditDirty() error           { return nil }
func (t flatThread) Close()                      {}

func (t flatThread) SnapshotDirtyInto(*vheap.DirtySnapshot) *vheap.DirtySnapshot {
	panic("mempipe: speculation snapshot on flat memory — speculation requires versioned isolation")
}

func (t flatThread) RevertTo(*vheap.DirtySnapshot) int {
	panic("mempipe: speculation revert on flat memory — speculation requires versioned isolation")
}
