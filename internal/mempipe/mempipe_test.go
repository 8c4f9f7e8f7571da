package mempipe

import (
	"fmt"
	"testing"

	"lazydet/internal/shmem"
	"lazydet/internal/telemetry"
	"lazydet/internal/vheap"
)

const words = 64 // one page

// pair is an owner window and a foreign window over a private heap.
type pair struct {
	p       Pipeline
	own, fr Thread
}

func newPair() *pair {
	p := NewVersioned(vheap.New(words), nil)
	return &pair{p, p.NewThread(0), p.NewThread(1)}
}

// Window states a synchronization point can find, as the store/publish prefix
// that produces them. A release here is what the engine's release does:
// publish, then re-base. The "staged" names date from publication elision,
// when such a release could defer its commit; it now always commits, so
// "staged" is a committed release, "staged+unpublished" one followed by
// further stores, and "staged+flushed" one followed by a foreign release.
var windowStates = []struct {
	name  string
	setup func(w *pair)
}{
	{"clean", func(*pair) {}},
	{"unpublished", func(w *pair) { w.own.Store(1, 11) }},
	{"staged", func(w *pair) {
		w.own.Store(1, 11)
		publishAndRebase(w.own)
	}},
	{"staged+unpublished", func(w *pair) {
		w.own.Store(1, 11)
		publishAndRebase(w.own)
		w.own.Store(2, 22)
		w.own.Store(1, 12)
	}},
	{"staged+flushed", func(w *pair) {
		w.own.Store(1, 11)
		publishAndRebase(w.own)
		w.fr.Store(3, 33)
		publishAndRebase(w.fr)
	}},
}

func publishAndRebase(th Thread) {
	th.Publish()
	th.Refresh()
}

// TestVisibilityPoints is the publication contract the engine's
// synchronization points rest on (DESIGN.md's "Visibility points" table):
// acquisitions, releases and signals publish and then re-base, a park only
// publishes. Entered in every window state, Publish commits at the next
// sequence exactly when the window holds writes and leaves nothing to
// publish; the owner keeps loading its own writes; a re-base sees every
// foreign publication, and without one the window stays at its base (or at
// its own commit, which re-bases the committing view).
//
// mayDefer names who acquires next: true is the same owner coming back —
// the traffic elision used to defer the commit for — false is the foreign
// window. Either way the next acquirer loads every word the owner wrote,
// and every such word is committed.
func TestVisibilityPoints(t *testing.T) {
	points := []struct {
		name   string
		rebase bool // the window ends based on the newest sequence
	}{
		{"Acquire", true},
		{"Release", true},
		{"Signal", true},
		{"Park", false},
	}
	for _, pt := range points {
		for _, st := range windowStates {
			for _, mayDefer := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/mayDefer=%v", pt.name, st.name, mayDefer), func(t *testing.T) {
					w := newPair()
					st.setup(w)
					// What the owner has written so far, published or not.
					written := map[int64]int64{}
					for a := int64(0); a < words; a++ {
						if v := w.own.Load(a); v != 0 && a != 3 {
							written[a] = v
						}
					}
					dirty := w.own.SnapshotDirtyInto(nil).Words() != 0
					baseBefore, seqBefore := w.own.BaseSeq(), w.p.Seq()

					seq, committed := w.own.Publish()
					if committed != dirty || committed && seq != seqBefore+1 || !committed && seq != 0 {
						t.Fatalf("Publish = (%d, %v) at pipeline sequence %d with unpublished writes %v", seq, committed, seqBefore, dirty)
					}
					if _, again := w.own.Publish(); again {
						t.Fatal("a second Publish found writes to publish")
					}
					wantBase := baseBefore
					if committed {
						wantBase = seq
					}
					if pt.rebase {
						w.own.Refresh()
						wantBase = w.p.Seq()
					}
					if b := w.own.BaseSeq(); b != wantBase {
						t.Fatalf("window based at %d, want %d (re-bases: %v)", b, wantBase, pt.rebase)
					}
					if rule, err := w.own.Audit(); err != nil {
						t.Fatalf("%s: %v", rule, err)
					}
					for a, v := range written {
						if g := w.own.Load(a); g != v {
							t.Fatalf("own load of word %d = %d, written %d", a, g, v)
						}
					}
					if foreign := w.own.Load(3); st.name == "staged+flushed" && pt.rebase && foreign != 33 {
						t.Fatalf("re-based window does not see the foreign publication: word 3 = %d", foreign)
					} else if !pt.rebase && foreign != 0 && !committed {
						t.Fatalf("a window that neither committed nor re-based sees word 3 = %d", foreign)
					}

					// The next acquisition.
					next := w.fr
					if mayDefer {
						next = w.own
					}
					publishAndRebase(next)
					if b := next.BaseSeq(); b != w.p.Seq() {
						t.Fatalf("next acquirer based at %d, pipeline at %d", b, w.p.Seq())
					}
					for a, v := range written {
						if g := next.Load(a); g != v {
							t.Fatalf("next acquirer loads word %d = %d, written %d", a, g, v)
						}
						if g := w.p.ReadCommitted(a); g != v {
							t.Fatalf("committed word %d = %d, written %d", a, g, v)
						}
					}
				})
			}
		}
	}
}

// TestPublicationContract covers what the engines (and benchmark/) rely on,
// on both pipelines: Publish is (0, false) with nothing unpublished and
// (Pipeline.Seq(), true) after a store; StoreDirty makes a base-valued store
// count; a speculation snapshot rolls a run back; the flat pipeline answers
// every question degenerately — nothing to publish, sequence 0 — while
// stores still land. "mempipe.publishes" counts once per publication, and
// the nil recorder is safe.
func TestPublicationContract(t *testing.T) {
	for _, c := range []struct {
		name      string
		versioned bool
		pipe      func(tel *telemetry.Recorder) Pipeline
	}{
		{"versioned", true, func(tel *telemetry.Recorder) Pipeline { return NewVersioned(vheap.New(words), tel) }},
		{"flat", false, func(*telemetry.Recorder) Pipeline { return NewFlat(shmem.New(words)) }},
	} {
		for _, tel := range []*telemetry.Recorder{nil, telemetry.New()} {
			t.Run(fmt.Sprintf("%s/recorder=%v", c.name, tel != nil), func(t *testing.T) {
				p := c.pipe(tel)
				th := p.NewThread(0)
				defer th.Close()
				publish := func(when string, want bool) {
					t.Helper()
					want = want && c.versioned
					seq, ok := th.Publish()
					if ok != want || (ok && seq != p.Seq()) || (!ok && seq != 0) {
						t.Fatalf("%s: (%d, %v) at pipeline sequence %d, want published=%v at that sequence (0 when nothing is)",
							when, seq, ok, p.Seq(), want)
					}
				}

				publish("Publish on a fresh window", false)
				th.Store(3, 7)
				if got := p.ReadCommitted(3); c.versioned && got != 0 {
					t.Fatalf("an unpublished store is already committed: word 3 = %d", got)
				}
				publish("Publish after a store", true)
				publish("second Publish", false)

				th.Store(4, 9)
				publish("Publish after a second store", true)
				th.Refresh()
				th.RefreshTo(p.Seq())
				if th.BaseSeq() != p.Seq() {
					t.Fatalf("window based at %d, pipeline at %d", th.BaseSeq(), p.Seq())
				}

				th.StoreDirty(5, 0) // equal to the base: only StoreDirty makes it count
				publish("Publish after StoreDirty", true)
				for addr, want := range map[int64]int64{3: 7, 4: 9, 5: 0} {
					if th.Load(addr) != want || p.ReadCommitted(addr) != want {
						t.Fatalf("word %d: window %d, committed %d, want %d", addr, th.Load(addr), p.ReadCommitted(addr), want)
					}
				}
				if rule, err := th.Audit(); err != nil {
					t.Fatalf("%s: %v", rule, err)
				}

				wantSeq, wantCount := int64(3), int64(3)
				if !c.versioned {
					wantSeq, wantCount = 0, 0
				}
				if p.Seq() != wantSeq {
					t.Fatalf("pipeline at sequence %d, want %d", p.Seq(), wantSeq)
				}
				if tel != nil && tel.Counter("mempipe.publishes") != wantCount {
					t.Fatalf("mempipe.publishes = %d, want %d (one per publication)", tel.Counter("mempipe.publishes"), wantCount)
				}

				// Speculation needs write isolation (core.New enforces it);
				// only versioned windows roll a run back.
				if !c.versioned {
					return
				}
				th.Store(6, 1)
				snap := th.SnapshotDirtyInto(nil)
				th.Store(7, 2)
				if n := th.RevertTo(snap); n != 1 || th.Load(7) != 0 || th.Load(6) != 1 {
					t.Fatalf("RevertTo discarded %d words (want 1); words 6, 7 = %d, %d (want 1, 0)", n, th.Load(6), th.Load(7))
				}
			})
		}
	}
}
