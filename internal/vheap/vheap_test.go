package vheap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadStoreIsolation(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	a.Store(10, 42)
	if got := a.Load(10); got != 42 {
		t.Fatalf("a.Load(10) = %d, want 42 (own write must be visible)", got)
	}
	if got := b.Load(10); got != 0 {
		t.Fatalf("b.Load(10) = %d, want 0 (uncommitted write leaked)", got)
	}
	a.Commit()
	if got := b.Load(10); got != 0 {
		t.Fatalf("b.Load(10) = %d, want 0 (b has not updated)", got)
	}
	b.Update()
	if got := b.Load(10); got != 42 {
		t.Fatalf("b.Load(10) after Update = %d, want 42", got)
	}
}

func TestCommitMergesWordLevel(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	// Same page (page size 256 words), disjoint words.
	a.Store(0, 1)
	b.Store(1, 2)
	a.Commit()
	b.Commit()
	c := h.NewView()
	if got := c.Load(0); got != 1 {
		t.Fatalf("word 0 = %d, want 1 (a's write lost in merge)", got)
	}
	if got := c.Load(1); got != 2 {
		t.Fatalf("word 1 = %d, want 2 (b's write lost in merge)", got)
	}
}

func TestCommitLastWriterWinsSameWord(t *testing.T) {
	h := New(64, WithPageWords(16))
	a := h.NewView()
	b := h.NewView()
	a.Store(5, 111)
	b.Store(5, 222)
	a.Commit()
	b.Commit() // later commit wins the word
	if got := h.ReadCommitted(5); got != 222 {
		t.Fatalf("word 5 = %d, want 222 (commit order must decide)", got)
	}
}

// TestSilentStoreLost documents the word-tearing limitation the paper
// inherits from RFDet (§4): a store of the value already present produces no
// diff and does not overwrite a concurrent committed change.
func TestSilentStoreLost(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	a.Store(3, 7) // silent: same value as the base version
	b.Store(3, 9)
	b.Commit()
	a.Commit()
	if got := h.ReadCommitted(3); got != 9 {
		t.Fatalf("word 3 = %d, want 9 (silent store must not generate a diff)", got)
	}
}

func TestRevertDiscardsChanges(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	a.Store(100, 5)
	a.Store(101, 6)
	if n := a.DirtyWords(); n != 2 {
		t.Fatalf("DirtyWords = %d, want 2", n)
	}
	if n := a.Revert(); n != 2 {
		t.Fatalf("Revert discarded %d words, want 2", n)
	}
	if got := a.Load(100); got != 0 {
		t.Fatalf("after revert Load(100) = %d, want 0", got)
	}
	if h.Seq() != 0 {
		t.Fatalf("revert must not commit; seq = %d", h.Seq())
	}
}

func TestRevertRebasesToLatest(t *testing.T) {
	h := New(1024)
	a := h.NewView()
	b := h.NewView()
	a.Store(7, 70)
	b.Store(8, 80)
	b.Commit()
	a.Revert()
	if got := a.Load(8); got != 80 {
		t.Fatalf("after revert, Load(8) = %d, want 80 (heap must update to newest committed version)", got)
	}
}

func TestSnapshotReadsOldVersionWhileOthersCommit(t *testing.T) {
	h := New(1024)
	h.SetInitial(0, 1)
	a := h.NewView() // bases at the initial state
	b := h.NewView()
	for i := 0; i < 10; i++ {
		b.Store(0, int64(100+i))
		b.Commit()
	}
	if got := a.Load(0); got != 1 {
		t.Fatalf("a.Load(0) = %d, want 1 (snapshot isolation violated)", got)
	}
	a.Update()
	if got := a.Load(0); got != 109 {
		t.Fatalf("after update a.Load(0) = %d, want 109", got)
	}
}

func TestTrimmedChainsStayBounded(t *testing.T) {
	h := New(256, WithPageWords(16)) // 16 pages
	v := h.NewView()
	for i := 0; i < 1000; i++ {
		v.Store(0, int64(i))
		v.Commit()
	}
	// One live view, always re-based at commit: the chain for page 0
	// should hold the head plus at most a short tail.
	if n := h.LiveVersions(); n > 16+4 {
		t.Fatalf("LiveVersions = %d after 1000 commits; trimming is not working", n)
	}
}

// TestPagesCountsEachNewVersion pins what the DLRC version count (paper
// §4.2) is derived from: Stats().Pages rises by exactly one for every page a
// commit links a new version into, and not at all for a page whose stores
// were all silent. A DLRC heap retains every linked version, so its count
// is the page population plus Stats().Pages.
func TestPagesCountsEachNewVersion(t *testing.T) {
	h := New(64, WithPageWords(16)) // 4 pages
	v := h.NewView()
	step := func(what string, wantPages int64, publish func()) {
		t.Helper()
		before := h.Stats().Pages
		publish()
		if got := h.Stats().Pages - before; got != wantPages {
			t.Fatalf("%s: Stats().Pages rose by %d, want %d", what, got, wantPages)
		}
	}
	step("commit touching pages 0 and 2", 2, func() {
		v.Store(1, 10)
		v.Store(2, 20)
		v.Store(33, 30)
		v.Commit()
	})
	step("commit touching page 3", 1, func() {
		v.Store(50, 50)
		v.Commit()
	})
	step("commit touching pages 1 and 3", 2, func() {
		v.Store(17, 17)
		v.Store(51, 51)
		v.Commit()
	})
	step("silent commit", 0, func() {
		v.Store(1, 10)
		v.Store(33, 30)
		v.Commit()
	})
}

func TestHashDetectsDifferences(t *testing.T) {
	h1 := New(1024)
	h2 := New(1024)
	if h1.Hash() != h2.Hash() {
		t.Fatal("identical heaps hash differently")
	}
	v := h1.NewView()
	v.Store(512, 1)
	v.Commit()
	if h1.Hash() == h2.Hash() {
		t.Fatal("different heaps hash identically")
	}
}

func TestSetInitialVisibleToViews(t *testing.T) {
	h := New(1024)
	h.SetInitial(33, 99)
	v := h.NewView()
	if got := v.Load(33); got != 99 {
		t.Fatalf("Load(33) = %d, want 99", got)
	}
}

func TestUpdatePanicsWithDirtyPages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Update with dirty pages must panic (engine protocol violation)")
		}
	}()
	h := New(64, WithPageWords(16))
	v := h.NewView()
	v.Store(0, 1)
	v.Update()
}

// TestQuickMergeDisjointWriters is a property test: concurrent committers
// writing disjoint word sets must all survive the merge. The writers store
// concurrently; their commits are serialized, as Commit's contract requires
// (the engines commit at their turns), by a mutex standing in for the turn.
func TestQuickMergeDisjointWriters(t *testing.T) {
	f := func(vals [4]int64) bool {
		h := New(64, WithPageWords(16))
		var wg sync.WaitGroup
		var commitMu sync.Mutex
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := h.NewView()
				v.Store(int64(i), vals[i]|1) // |1 keeps it nonzero and non-silent
				commitMu.Lock()
				v.Commit()
				commitMu.Unlock()
			}(i)
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			if h.ReadCommitted(int64(i)) != vals[i]|1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountCommits(t *testing.T) {
	h := New(1024)
	v := h.NewView()
	v.Store(0, 1)
	v.Store(300, 2) // second page
	v.Commit()
	st := h.Stats()
	if st.Commits != 1 || st.Pages != 2 || st.Words != 2 {
		t.Fatalf("Stats = (%d,%d,%d), want (1,2,2)", st.Commits, st.Pages, st.Words)
	}
	// Under dirty tracking, finding 2 changed words costs examining exactly
	// the 2 marked words.
	if st.WordsScanned != 2 {
		t.Fatalf("WordsScanned = %d, want 2 (commit work must be proportional to dirty words)", st.WordsScanned)
	}
}

// TestQuickConcurrentViewsStress hammers the heap with concurrent views
// performing random store/commit/revert/update sequences on disjoint
// address ranges, then checks every view's writes survived exactly. Only
// Commit is serialized, by commitMu standing in for the engines' turn: the
// package contract is that "Commits are serialized" by the caller, and
// everything else a view does may run concurrently with them.
func TestQuickConcurrentViewsStress(t *testing.T) {
	f := func(seed uint64) bool {
		const goroutines = 4
		const perRange = 64
		h := New(goroutines*perRange, WithPageWords(32))
		var wg sync.WaitGroup
		var commitMu sync.Mutex
		commit := func(v *View) {
			commitMu.Lock()
			v.Commit()
			commitMu.Unlock()
		}
		expected := make([][]int64, goroutines)
		for g := 0; g < goroutines; g++ {
			expected[g] = make([]int64, perRange)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := seed + uint64(g)*977
				next := func(n uint64) uint64 {
					r = r*6364136223846793005 + 1442695040888963407
					return (r >> 33) % n
				}
				v := h.NewView()
				defer v.Close()
				base := int64(g * perRange)
				pending := map[int64]int64{}
				for i := 0; i < 200; i++ {
					switch next(10) {
					case 0: // revert: discard pending
						v.Revert()
						pending = map[int64]int64{}
					case 1, 2: // commit: pending becomes durable
						commit(v)
						for a, val := range pending {
							expected[g][a-base] = val
						}
						pending = map[int64]int64{}
					case 3:
						if len(pending) == 0 {
							v.Update() // only legal with a clean dirty set
						}
					default:
						a := base + int64(next(perRange))
						val := int64(next(1000)) + 1
						v.Store(a, val)
						pending[a] = val
					}
				}
				commit(v)
				for a, val := range pending {
					expected[g][a-base] = val
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			for off, want := range expected[g] {
				if got := h.ReadCommitted(int64(g*perRange + off)); got != want {
					t.Logf("seed %x: word (%d,%d) = %d, want %d", seed, g, off, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDirtyForcesMerge: a StoreDirty of the base value still wins the
// commit merge.
func TestStoreDirtyForcesMerge(t *testing.T) {
	h := New(64, WithPageWords(16))
	h.SetInitial(3, 7)
	a := h.NewView()
	b := h.NewView()
	b.Store(3, 9)
	b.Commit()         // committed value now 9
	a.StoreDirty(3, 7) // equals a's (stale) base: must still merge
	a.Commit()
	if got := h.ReadCommitted(3); got != 7 {
		t.Fatalf("word 3 = %d, want 7 (StoreDirty must not be silent)", got)
	}
}
