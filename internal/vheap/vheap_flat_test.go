package vheap

import "testing"

// This file tests the flat per-view page tables, the generation-stamped
// clean cache, and the frame/page pools: the table audit must catch each
// corruption, and the pooled fast path must reach an allocation-free steady
// state. (What the tables resolve is checked against the word-level model in
// model_test.go.)

// TestCloseIdempotent is the double-free regression test: closing a view
// twice must be a no-op the second time — it must not unregister an aliased
// later view or spuriously invalidate the trim-floor cache — and the heap
// must audit clean afterwards.
func TestCloseIdempotent(t *testing.T) {
	h := New(32, WithPageWords(32))
	v := h.NewView()
	w := h.NewView()
	w.Store(0, 1)
	w.Commit()
	v.Close()
	v.Close() // second close: must be a no-op
	w.Store(0, 2)
	w.Commit()
	if err := h.Audit(); err != nil {
		t.Fatalf("audit after double close: %v", err)
	}
	if got := h.ReadCommitted(0); got != 2 {
		t.Fatalf("word 0 = %d, want 2", got)
	}
	// The trim floor must reflect only the surviving view: after its
	// commits, old versions pinned by nothing must have been trimmed.
	if got := h.LiveVersions(); got > 2 {
		t.Fatalf("%d versions survive after the pinning view closed twice, want <= 2", got)
	}
	w.Close()
	w.Close()
	if err := h.Audit(); err != nil {
		t.Fatalf("audit after closing every view twice: %v", err)
	}
}

// TestAuditTablesCatchesCorruption corrupts each flat-table invariant in
// turn and checks AuditTables reports it: a frame missing from the dirty
// index, a stale clean-cache stamp, and a pooled frame with residual dirty
// bits.
func TestAuditTablesCatchesCorruption(t *testing.T) {
	fresh := func() (*Heap, *View) {
		h := New(128, WithPageWords(32))
		v := h.NewView()
		v.Store(0, 1)
		v.Load(40) // populate the clean cache for page 1
		if err := v.AuditTables(); err != nil {
			t.Fatalf("fresh view audited dirty: %v", err)
		}
		return h, v
	}

	h, v := fresh()
	v.dirtyTab[2] = h.newFrame() // frame not listed in dirtyIdx
	if err := v.AuditTables(); err == nil {
		t.Fatal("unlisted dirty frame not caught")
	}

	_, v = fresh()
	v.dirtyIdx = append(v.dirtyIdx, 3) // listed page without a frame
	if err := v.AuditTables(); err == nil {
		t.Fatal("dirty index entry without a frame not caught")
	}

	_, v = fresh()
	v.cleanTab[1] = &page{seq: 99, words: make([]int64, 32)} // stale cached resolution
	if err := v.AuditTables(); err == nil {
		t.Fatal("stale clean-cache resolution not caught")
	}

	h, v = fresh()
	d := h.newFrame()
	d.mark(5) // a recycled frame must start with a clear bitmap
	v.free = append(v.free, d)
	if err := v.AuditTables(); err == nil {
		t.Fatal("pooled frame with residual dirty bits not caught")
	}

	_, v = fresh()
	v.free = append(v.free, v.dirtyTab[0]) // pool aliasing a live frame
	if err := v.AuditTables(); err == nil {
		t.Fatal("pool entry aliasing a live dirty frame not caught")
	}
}

// TestCommitSteadyStateAllocFree is the pooling acceptance criterion as a
// test: once the frame and page pools are warm, a store+commit sync epoch
// must allocate nothing — the dirty-page frame comes from the view's free
// list and the published page version from the trim-refilled heap pool.
func TestCommitSteadyStateAllocFree(t *testing.T) {
	h := New(64, WithPageWords(64))
	v := h.NewView()
	val := int64(0)
	epoch := func() {
		val++
		v.Store(3, val)
		v.Commit()
	}
	// Warm up: commit 1 publishes over the zero page (nothing trims),
	// commit 2 cuts the zero page (never pooled), commit 3 refills the
	// page pool for the first time.
	for i := 0; i < 5; i++ {
		epoch()
	}
	if allocs := testing.AllocsPerRun(100, epoch); allocs != 0 {
		t.Fatalf("steady-state store+commit epoch allocates %.1f times, want 0", allocs)
	}
	st := h.Stats()
	if st.FrameHits == 0 || st.PageHits == 0 {
		t.Fatalf("pools never hit (frame hits %d, page hits %d) — the alloc-free epochs did not come from the pools",
			st.FrameHits, st.PageHits)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := v.AuditTables(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIntoSteadyStateAllocFree: a speculation BEGIN's
// SnapshotDirtyInto and a failed run's RevertTo must also reach an
// allocation-free steady state, including when the dirty set shrinks (the
// spare list must retain the unused frames rather than dropping them).
func TestSnapshotIntoSteadyStateAllocFree(t *testing.T) {
	h := New(256, WithPageWords(32))
	v := h.NewView()
	var s *DirtySnapshot
	val := int64(0)
	run := func(pages int) {
		val++
		for p := 0; p < pages; p++ {
			v.Store(int64(p*32), val)
		}
		s = v.SnapshotDirtyInto(s)
		v.Store(33, val+7) // the speculative write the revert discards
		if d := v.RevertTo(s); d != 1 {
			t.Fatalf("revert discarded %d words, want 1", d)
		}
		if got := v.Load(33); got != 0 {
			t.Fatalf("speculative write survived the revert: word 33 = %d", got)
		}
		v.Revert()
	}
	run(6) // warm the frame pool and snapshot buffers at the largest size
	run(6)
	for _, pages := range []int{6, 2, 6, 1} {
		p := pages
		if allocs := testing.AllocsPerRun(50, func() { run(p) }); allocs != 0 {
			t.Fatalf("steady-state snapshot/revert with %d dirty pages allocates %.1f times, want 0", p, allocs)
		}
	}
	if err := v.AuditTables(); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationStampInvalidation: after a re-base the clean cache must not
// serve resolutions cached at the old base, even though the table entries
// are still physically present (only the generation moved).
func TestGenerationStampInvalidation(t *testing.T) {
	h := New(64, WithPageWords(32))
	reader := h.NewView()
	writer := h.NewView()
	if got := reader.Load(5); got != 0 {
		t.Fatalf("initial word 5 = %d, want 0", got)
	}
	writer.Store(5, 42)
	writer.Commit()
	if got := reader.Load(5); got != 0 {
		t.Fatalf("un-rebased reader sees %d, want its base's 0 (isolation broken)", got)
	}
	reader.Update()
	if got := reader.Load(5); got != 42 {
		t.Fatalf("re-based reader sees %d, want 42 (stale clean cache survived the generation bump)", got)
	}
	if err := reader.AuditTables(); err != nil {
		t.Fatal(err)
	}
}
