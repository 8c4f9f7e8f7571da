package vheap

import "testing"

// This file tests the dirty-word bitmap commit: the bitmap must never miss a
// modified word (AuditDirty), a marked-but-silent word must not merge, and
// commit work must be the number of dirty words, not the page size. (Which
// words a commit publishes is checked against the word-level model in
// model_test.go.)

// TestBitmapPreservesSilentStoreSemantics: a marked word equal to its twin
// must still merge as silent (lost to a concurrent commit).
func TestBitmapPreservesSilentStoreSemantics(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	a.Store(3, 7) // silent: marked in the bitmap, equal to the twin
	b.Store(3, 9)
	b.Commit()
	a.Commit()
	if got := h.ReadCommitted(3); got != 9 {
		t.Fatalf("word 3 = %d, want 9 (silent store must lose)", got)
	}
	// The all-silent page must publish no version.
	if st := h.Stats(); st.Pages != 1 {
		t.Fatalf("%d pages published, want 1 (a's silent page must publish nothing)", st.Pages)
	}
}

// TestAuditDirtyCatchesUnmarkedWord corrupts a page's bitmap and checks the
// audit reports the word the bitmap commit would drop.
func TestAuditDirtyCatchesUnmarkedWord(t *testing.T) {
	h := New(64, WithPageWords(16))
	v := h.NewView()
	v.Store(3, 9)
	if err := v.AuditDirty(); err != nil {
		t.Fatalf("clean dirty set audited dirty: %v", err)
	}
	d := v.dirtyTab[0]
	d.dirty[0] = 0 // word 3 differs from its twin but is no longer marked
	if err := v.AuditDirty(); err == nil {
		t.Fatal("unmarked modified word not caught by AuditDirty")
	}
	d.mark(3)
	v.Store(4, 0) // silent store: marked, equal to twin — legal
	if err := v.AuditDirty(); err != nil {
		t.Fatalf("marked silent store flagged: %v", err)
	}
}

// TestCommitScanProportionalToDirtyWords: at 1%-dirty pages a commit must
// examine exactly the dirty words, never the page.
func TestCommitScanProportionalToDirtyWords(t *testing.T) {
	const pageWords = 1024
	const dirtyPerPage = 10 // ~1% of a page
	h := New(pageWords, WithPageWords(pageWords))
	v := h.NewView()
	for c := 0; c < 20; c++ {
		for i := int64(0); i < dirtyPerPage; i++ {
			v.Store(i*97%pageWords, int64(c*100)+i+1)
		}
		v.Commit()
	}
	if got, want := h.Stats().WordsScanned, int64(20*dirtyPerPage); got != want {
		t.Fatalf("commits scanned %d words, want exactly %d (the dirty words)", got, want)
	}
}

// TestTrimFloorCacheInvalidation: closing the view that pins the trim floor
// must invalidate the cached floor, so the next commit trims the chain tail
// the closed view was holding alive.
func TestTrimFloorCacheInvalidation(t *testing.T) {
	h := New(32, WithPageWords(32))
	pinned := h.NewView() // base 0 pins every version
	w := h.NewView()
	for i := 0; i < 8; i++ {
		w.Store(0, int64(i+1))
		w.Commit() // caches floor 0 — nothing trims
	}
	grown := h.LiveVersions()
	if grown < 8 {
		t.Fatalf("pinned view retained %d versions, want >= 8", grown)
	}
	if err := h.Audit(); err != nil {
		t.Fatalf("audit with cached floor: %v", err)
	}
	pinned.Close() // must invalidate the cached floor
	w.Store(0, 99)
	w.Commit()
	// The commit trims to w's pre-commit base: the new head plus the floor
	// version survive, everything the closed view pinned is gone.
	if got := h.LiveVersions(); got > 2 {
		t.Fatalf("after closing the pinning view, %d versions survive the next commit, want <= 2 (stale floor cache?)", got)
	}
	if err := h.Audit(); err != nil {
		t.Fatalf("audit after invalidation: %v", err)
	}
}

// TestTrimFloorCacheRebase: a view sitting at the floor that re-bases via
// Update must also invalidate the cache.
func TestTrimFloorCacheRebase(t *testing.T) {
	h := New(32, WithPageWords(32))
	lagging := h.NewView()
	w := h.NewView()
	for i := 0; i < 6; i++ {
		w.Store(0, int64(i+1))
		w.Commit()
	}
	lagging.Update() // the floor holder moves forward: cache must drop
	w.Store(0, 77)
	w.Commit()
	if got := h.LiveVersions(); got > 2 {
		t.Fatalf("after the floor holder re-based, %d versions survive, want <= 2", got)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveViewRegistryCloseOrder closes views out of registration order: the
// registry is a slice with swap-remove, so a Close that moved the wrong entry
// (or left the moved view's slot stale) would unregister a live view and let
// a later commit trim below its base — the floor every commit trims at must
// be the oldest base among exactly the views still open.
func TestLiveViewRegistryCloseOrder(t *testing.T) {
	h := New(32, WithPageWords(32))
	w := h.NewView()
	var pins []*View // pins[i] is based at sequence i
	for i := 0; i < 5; i++ {
		pins = append(pins, h.NewView())
		w.Store(0, int64(i+1))
		w.Commit()
	}
	floorAfterCommit := func() int64 {
		w.Store(0, w.Load(0)+1)
		w.Commit()
		if err := h.Audit(); err != nil {
			t.Fatal(err)
		}
		return h.TrimFloor()
	}
	for _, step := range []struct {
		close int   // index into pins
		floor int64 // oldest base still open afterwards
	}{{1, 0}, {4, 0}, {0, 2}, {2, 3}, {3, -2}} {
		pins[step.close].Close()
		want := step.floor
		if want == -2 {
			want = h.Seq() // only w is left, and it trims at its own pre-commit base
		}
		if got := floorAfterCommit(); got != want {
			t.Fatalf("after closing the view based at %d: next commit trimmed at floor %d, want %d", step.close, got, want)
		}
	}
	for i, p := range pins {
		if got := p.BaseSeq(); got != int64(i) {
			t.Fatalf("pinned view %d moved to base %d", i, got)
		}
	}
}
