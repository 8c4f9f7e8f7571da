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
// sequence number is always 0.
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

// Thread is one thread's window onto the pipeline's memory. The VM's load
// and store instructions dispatch straight to it (it satisfies
// dvm.MemWindow); the engines publish and re-base it at synchronization
// points (DESIGN.md's "Visibility points" table).
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

	// Publish makes the window's writes globally visible and empties its
	// dirty set. It reports the commit sequence it published at, and false
	// if there was nothing to publish (or the memory is flat and publication
	// is meaningless). The caller holds the deterministic turn.
	Publish() (seq int64, committed bool)
	// Refresh re-bases the window on the newest published state. The dirty
	// set must be empty (publish or revert first).
	Refresh()
	// BaseSeq returns the commit sequence the window reads at.
	BaseSeq() int64

	// SnapshotDirtyInto copies the unpublished write set into s at a
	// speculation run's begin, recycling its buffers (nil s allocates a
	// fresh snapshot) so steady-state runs allocate nothing. Flat memory has
	// no write set: it returns s unchanged (core.New rejects speculation
	// without versioned isolation, so the engines never ask).
	SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot
	// RevertTo discards the run's writes and reinstates the snapshot,
	// returning the number of discarded speculative words. Zero on flat
	// memory, under the same core.New rule.
	RevertTo(s *vheap.DirtySnapshot) (discarded int)

	// Audit verifies the window's dirty tracking and page tables
	// (vheap.View.AuditDirty, AuditTables), naming the invariant rule the
	// first failure breaks. Nil on flat memory, which tracks nothing.
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
func (t *versionedThread) BaseSeq() int64                      { return t.v.BaseSeq() }
func (t *versionedThread) RevertTo(s *vheap.DirtySnapshot) int { return t.v.RevertTo(s) }
func (t *versionedThread) Close()                              { t.v.Close() }

func (t *versionedThread) SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot {
	return t.v.SnapshotDirtyInto(s)
}

func (t *versionedThread) Publish() (int64, bool) {
	if t.v.DirtyPages() == 0 {
		return 0, false
	}
	if t.tel != nil {
		t.publishes.Add(1)
		t.tel.Observe("mempipe.publish_dirty_words", int64(t.v.DirtyWords()))
	}
	seq, _ := t.v.Commit()
	return seq, true
}

func (t *versionedThread) Audit() (string, error) {
	if err := t.v.AuditDirty(); err != nil {
		return "commit-dirty-tracking", err
	}
	return "view-page-table", t.v.AuditTables()
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
func (t flatThread) Publish() (int64, bool)     { return 0, false }
func (t flatThread) Refresh()                   {}
func (t flatThread) BaseSeq() int64             { return 0 }
func (t flatThread) Audit() (string, error)     { return "", nil }
func (t flatThread) Close()                     {}

func (t flatThread) SnapshotDirtyInto(s *vheap.DirtySnapshot) *vheap.DirtySnapshot { return s }
func (t flatThread) RevertTo(*vheap.DirtySnapshot) int                             { return 0 }
