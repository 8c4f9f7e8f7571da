package vheap

import "testing"

// TestTrimFloorMonotone pins the trim-floor invariant: as views commit,
// re-base and close, the floor trims use never decreases, and never exceeds
// the newest committed sequence.
func TestTrimFloorMonotone(t *testing.T) {
	h := New(1024, WithPageWords(16))
	prev := h.TrimFloor()
	check := func(stage string) {
		cur := h.TrimFloor()
		if cur < prev {
			t.Fatalf("%s: trim floor went backwards: %d -> %d", stage, prev, cur)
		}
		if cur > h.Seq() {
			t.Fatalf("%s: trim floor %d ahead of newest commit %d", stage, cur, h.Seq())
		}
		prev = cur
	}

	a := h.NewView()
	b := h.NewView()
	for round := 0; round < 8; round++ {
		for pi := 0; pi < 64; pi += 3 {
			a.Store(int64(pi*16), int64(round))
		}
		a.Commit()
		check("after a.Commit")
		b.Update() // b's base advances: the floor may rise
		for pi := 1; pi < 64; pi += 5 {
			b.Store(int64(pi*16), int64(-round))
		}
		b.Commit()
		check("after b.Commit")
		a.Update()
	}
	b.Close()
	check("after b.Close")
	// With only one live view at the newest base, another commit trims
	// every touched chain up to that base.
	for pi := 0; pi < 64; pi++ {
		a.Store(int64(pi*16+1), 7)
	}
	a.Commit()
	check("after full-heap commit")
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
	a.Close()
}

// TestPagePoolRecyclesFrames checks trimming refills the page pool:
// steady-state commits on a trimmed heap reuse frames rather than allocating
// fresh pages without bound.
func TestPagePoolRecyclesFrames(t *testing.T) {
	h := New(1024, WithPageWords(16))
	v := h.NewView()
	for round := 0; round < 50; round++ {
		for pi := 0; pi < 64; pi++ {
			v.Store(int64(pi*16), int64(round))
		}
		v.Commit()
	}
	// One live view at the newest base: every chain should have been
	// trimmed to ~1 version + the shared zero tail.
	if live := h.LiveVersions(); live > 2*64 {
		t.Fatalf("%d live versions after steady-state commits on 64 pages; trimming is not recycling", live)
	}
	// The first two rounds allocate (the second only cuts the shared zero
	// page, which never pools); from the third on, each round's sweep frees
	// exactly the frames its own commit takes.
	if st := h.Stats(); st.PageMisses > 2*64 || st.PageHits == 0 {
		t.Fatalf("%d page hits, %d misses over 50 rounds on 64 pages; want misses <= %d and hits > 0", st.PageHits, st.PageMisses, 2*64)
	}
	v.Close()
}

// TestPagePoolReusesAcrossPages checks the page pool is one pool: a frame
// trimmed from page 0's chain serves a later commit to the heap's last page.
func TestPagePoolReusesAcrossPages(t *testing.T) {
	const pageWords, npages = 16, 64
	h := New(pageWords*npages, WithPageWords(pageWords))
	v := h.NewView()
	// The third commit to page 0 sweeps its first version off the chain
	// before merging (the first two only cut down to the shared zero page,
	// which never pools), and takes that frame for itself.
	for i := int64(1); i <= 3; i++ {
		v.Store(0, i)
		v.Commit()
	}
	if st := h.Stats(); st.PageHits != 1 || st.PageMisses != 2 {
		t.Fatalf("after three commits to page 0: %d page hits, %d misses; want 1 and 2", st.PageHits, st.PageMisses)
	}
	last := int64(pageWords * (npages - 1))
	v.Store(last+5, 42)
	v.Commit()
	if st := h.Stats(); st.PageHits != 2 {
		t.Fatalf("commit to the last page: %d page hits, want 2 (page 0's swept frame)", st.PageHits)
	}
	w := h.NewView()
	for a := last; a < last+pageWords; a++ {
		want := int64(0)
		if a == last+5 {
			want = 42
		}
		if got := w.Load(a); got != want {
			t.Fatalf("word %d = %d after reuse, want %d", a, got, want)
		}
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	v.Close()
}

// chainLen counts the versions of page pi's chain.
func chainLen(h *Heap, pi int) int {
	n := 0
	for p := h.slots[pi].Load(); p != nil; p = p.prev.Load() {
		n++
	}
	return n
}

// TestSweepReclaimsIdlePages checks the tail-list sweep: a page committed
// twice and never again keeps the version a lagging view still reads, and
// is cut to its head once every view has re-based past its last commit —
// by a commit to another page, which takes the freed array from the pool.
// Every step passes both audits.
func TestSweepReclaimsIdlePages(t *testing.T) {
	const pageWords = 16
	h := New(4*pageWords, WithPageWords(pageWords))
	a, b, c := h.NewView(), h.NewView(), h.NewView()
	audit := func(stage string) {
		t.Helper()
		if err := h.Audit(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, v := range []*View{a, b, c} {
			if err := v.AuditTables(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
	}
	other := int64(pageWords) // a word of page 1
	a.Store(0, 1)
	a.Commit() // seq 1
	b.Update() // b reads page 0 at seq 1
	a.Store(0, 2)
	a.Commit() // seq 2: page 0's last commit; c still at 0 pins the whole chain
	old := h.slots[0].Load().prev.Load()
	if old.seq != 1 {
		t.Fatalf("page 0's second version has seq %d, want 1", old.seq)
	}
	for i := int64(0); i < 4; i++ {
		a.Store(other, 10+i)
		a.Commit()
	}
	audit("before c re-bases")
	if got := chainLen(h, 0); got != 3 {
		t.Fatalf("page 0 chain holds %d versions with a view at seq 0, want 3", got)
	}

	c.Update() // the floor moves to b's base, 1
	a.Store(other, 20)
	a.Commit()
	audit("after the floor reached 1")
	if got := chainLen(h, 0); got != 2 {
		t.Fatalf("page 0 chain holds %d versions at floor 1, want 2 (seq 2 and b's seq 1)", got)
	}
	if got, want := b.Load(0), int64(1); got != want {
		t.Fatalf("view based at seq 1 loads %d from the swept page, want %d", got, want)
	}
	if got := c.Load(0); got != 2 {
		t.Fatalf("view based at the newest commit loads %d, want 2", got)
	}

	// Every view is past page 0's last commit, but one page has been
	// committed since the last sweep and the list holds two (pages 0 and
	// 1): the sweep waits for one more, which keeps it O(1) per page.
	b.Update()
	a.Store(other, 30)
	a.Commit()
	if got := chainLen(h, 0); got != 2 {
		t.Fatalf("page 0 chain holds %d versions one commit after the floor moved, want 2 (sweep not yet due)", got)
	}
	hits := h.Stats().PageHits
	a.Store(other, 31)
	a.Commit()
	audit("after every view re-based")
	if got := chainLen(h, 0); got != 1 {
		t.Fatalf("page 0 chain holds %d versions with every view past its last commit, want 1", got)
	}
	if got := h.Stats().PageHits; got != hits+1 {
		t.Fatalf("the sweeping commit took %d pooled pages, want 1", got-hits)
	}
	if h.slots[1].Load() != old {
		t.Fatal("page 1's new version is not page 0's swept array")
	}
	for _, v := range []*View{b, c} {
		if got := v.Load(0); got != 2 {
			t.Fatalf("re-based view loads %d from page 0, want 2", got)
		}
	}
	h.mu.Lock()
	listed := h.tailed[0]
	h.mu.Unlock()
	if listed {
		t.Fatal("page 0 is still on the tail list after its chain was cut to its head")
	}
	a.Close()
	b.Close()
	c.Close()
}
