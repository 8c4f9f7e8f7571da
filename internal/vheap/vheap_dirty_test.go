package vheap

import (
	"strings"
	"testing"
)

// This file tests the dirty-word bitmap commit: the bitmap must never miss a
// modified word (AuditDirty), a marked-but-silent word must not merge, and
// commit work must be the number of dirty words, not the page size. (Which
// words a commit publishes is checked against the word-level model in
// model_test.go.)

// TestBitmapPreservesSilentStoreSemantics: a marked word equal to its base
// version must still merge as silent (lost to a concurrent commit).
func TestBitmapPreservesSilentStoreSemantics(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	a.Store(3, 7) // silent: marked in the bitmap, equal to the base version
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

// TestAuditDirtyCatchesStaleBase points a dirty frame at a version other
// than the one the view's base resolves to — the frame would diff against,
// and read its unwritten words from, the wrong page — and checks AuditDirty
// (the commit-dirty-tracking rule's audit) reports it, as it does a forced
// word that is not marked.
func TestAuditDirtyCatchesStaleBase(t *testing.T) {
	h := New(64, WithPageWords(16))
	v := h.NewView()
	w := h.NewView()
	v.Store(3, 9)
	v.Store(4, 0) // silent store: marked, equal to the base — legal
	w.Store(5, 1)
	w.Commit() // page 0 now has a version newer than v's base
	if err := v.AuditDirty(); err != nil {
		t.Fatalf("clean dirty set audited dirty: %v", err)
	}
	d := v.dirtyTab[0]
	good := d.base
	for _, bad := range []*page{h.slots[0].Load(), nil} {
		d.base = bad
		err := v.AuditDirty()
		if err == nil {
			t.Fatalf("dirty frame diffing against %v instead of the base version not caught", bad)
		}
		if !strings.Contains(err.Error(), "page 0") {
			t.Fatalf("audit error %q does not name the page", err)
		}
	}
	d.base = good
	d.force[0] = 1 << 6 // word 6 forced but never stored
	if err := v.AuditDirty(); err == nil {
		t.Fatal("forced unmarked word not caught by AuditDirty")
	}
	d.force[0] = 0
	if err := v.AuditDirty(); err != nil {
		t.Fatalf("restored frame audited dirty: %v", err)
	}
}

// TestUnwrittenWordReadsBase: a dirty page holds private values only for the
// words the view stored; every other word reads the view's base version —
// not a newer commit, not a recycled frame's stale value — also after
// RevertTo reinstates a snapshot over the run's writes.
func TestUnwrittenWordReadsBase(t *testing.T) {
	h := New(64, WithPageWords(16))
	for i := int64(0); i < 16; i++ {
		h.SetInitial(i, 100+i)
	}
	v := h.NewView()
	w := h.NewView()
	check := func(when string, want map[int64]int64) {
		t.Helper()
		for addr, val := range want {
			if got := v.Load(addr); got != val {
				t.Fatalf("%s: word %d = %d, want %d", when, addr, got, val)
			}
		}
	}
	// Leave stale values in v's pooled frame: the next frame is this one.
	for i := int64(0); i < 16; i++ {
		v.Store(i, -1)
	}
	v.Revert()
	v.Store(3, 9)
	w.Store(4, 44) // a newer commit v's base must not see
	w.Commit()
	check("after first write", map[int64]int64{3: 9, 4: 104, 5: 105})

	s := v.SnapshotDirty()
	v.Store(4, 11) // the run's writes: one beside the pre-run write...
	v.Store(3, 12) // ...and one over it
	check("during the run", map[int64]int64{3: 12, 4: 11, 5: 105})
	if d := v.RevertTo(s); d != 1 {
		t.Fatalf("RevertTo discarded %d words, want 1 (word 4; word 3 is pre-run)", d)
	}
	check("after RevertTo", map[int64]int64{3: 9, 4: 104, 5: 105})
	if err := v.AuditDirty(); err != nil {
		t.Fatal(err)
	}
	if _, n := v.Commit(); n != 1 {
		t.Fatalf("commit merged %d words, want 1", n)
	}
	if got := h.ReadCommitted(4); got != 44 {
		t.Fatalf("committed word 4 = %d, want w's 44 (v never wrote it)", got)
	}
	check("after commit", map[int64]int64{3: 9, 4: 44, 5: 105})
}

// TestStoreDirtyForcedThroughLaterStore: StoreDirty of the base value wins
// the merge against a concurrent commit, and a later plain store keeps the
// word forced — of the same value (which alone would be silent), and of the
// base value's complement (which a twin flipped to mark the force once read
// as silent).
func TestStoreDirtyForcedThroughLaterStore(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	for _, later := range []string{"none", "same", "complement"} {
		a := h.NewView()
		b := h.NewView()
		base := a.Load(3)
		a.StoreDirty(3, base)
		want := base
		switch later {
		case "same":
			a.Store(3, base)
		case "complement":
			want = ^base
			a.Store(3, want)
		}
		if got := a.DirtyWords(); got != 1 {
			t.Fatalf("later store %s: DirtyWords = %d, want 1 (the forced word)", later, got)
		}
		b.Store(3, base+2)
		b.Commit()
		if _, n := a.Commit(); n != 1 {
			t.Fatalf("later store %s: commit merged %d words, want 1", later, n)
		}
		if got := h.ReadCommitted(3); got != want {
			t.Fatalf("later store %s: word 3 = %d, want %d", later, got, want)
		}
		a.Close()
		b.Close()
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
