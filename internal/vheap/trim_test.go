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
	h.mu.Lock()
	pooled := len(h.pagePool)
	h.mu.Unlock()
	if pooled == 0 {
		t.Fatal("no frames in the page pool after heavy trimming")
	}
	v.Close()
}

// TestPagePoolReusesAcrossPages checks the page pool is one pool: a frame
// trimmed from page 0's chain serves a later commit to the heap's last page.
func TestPagePoolReusesAcrossPages(t *testing.T) {
	const pageWords, npages = 16, 64
	h := New(pageWords*npages, WithPageWords(pageWords))
	v := h.NewView()
	// The third commit to page 0 trims its first version off the chain (the
	// first two only cut down to the shared zero page, which never pools).
	for i := int64(1); i <= 3; i++ {
		v.Store(0, i)
		v.Commit()
	}
	if st := h.Stats(); st.PageHits != 0 || st.PageMisses != 3 {
		t.Fatalf("after three commits to page 0: %d page hits, %d misses; want 0 and 3", st.PageHits, st.PageMisses)
	}
	last := int64(pageWords * (npages - 1))
	v.Store(last+5, 42)
	v.Commit()
	if st := h.Stats(); st.PageHits != 1 {
		t.Fatalf("commit to the last page: %d page hits, want 1 (page 0's trimmed frame)", st.PageHits)
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
