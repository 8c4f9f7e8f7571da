package mempipe

import (
	"fmt"
	"testing"

	"lazydet/internal/shmem"
	"lazydet/internal/telemetry"
	"lazydet/internal/vheap"
)

const words = 64 // one page

// twin is one side of TestVisibilityPoints: an owner window and a foreign
// window over a private heap.
type twin struct {
	p       Pipeline
	own, fr Thread
}

func newTwin() *twin {
	p := NewVersioned(vheap.New(words), nil)
	return &twin{p, p.NewThread(0), p.NewThread(1)}
}

// Window states a visibility point can find, as the store/sync prefix that
// produces them. mayDefer is the side's deferral answer: the reference twin
// always says false, so where the subject stages the reference commits.
var windowStates = []struct {
	name  string
	setup func(w *twin, mayDefer bool)
}{
	{"clean", func(*twin, bool) {}},
	{"unpublished", func(w *twin, _ bool) { w.own.Store(1, 11) }},
	{"staged", func(w *twin, d bool) {
		w.own.Store(1, 11)
		w.own.Sync(Release, d)
	}},
	{"staged+unpublished", func(w *twin, d bool) {
		w.own.Store(1, 11)
		w.own.Sync(Release, d)
		w.own.Store(2, 22)
		w.own.Store(1, 12)
	}},
	{"staged+flushed", func(w *twin, d bool) {
		w.own.Store(1, 11)
		w.own.Sync(Release, d)
		w.fr.Store(3, 33)
		w.fr.Sync(Release, false)
	}},
}

// TestVisibilityPoints is the publication contract, stated where it is
// implemented: every Point, entered in every window state, with the
// deferral answer false and true, must be indistinguishable from the same
// point on a twin that never defers — same sequence published at (a staged
// release reserves exactly the sequence an eager commit would have used),
// same pipeline sequence, same own loads, and, once the next settling point
// has run, the same committed image. Beside the twin comparison each point
// is held to its own row of the mechanism table: which points re-base, which
// settle, and what the window may still keep private.
func TestVisibilityPoints(t *testing.T) {
	points := []struct {
		p      Point
		name   string
		rebase bool // the window ends based on the newest sequence
		settle bool // every deferred publication is on the chains afterwards
	}{
		{Acquire, "Acquire", true, false},
		{Release, "Release", true, false},
		{Signal, "Signal", true, true},
		{Park, "Park", false, true},
		{Upgrade, "Upgrade", false, true},
	}
	for _, pt := range points {
		for _, st := range windowStates {
			for _, mayDefer := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/mayDefer=%v", pt.name, st.name, mayDefer), func(t *testing.T) {
					sub, ref := newTwin(), newTwin()
					st.setup(sub, mayDefer)
					st.setup(ref, false)
					if sub.p.Seq() != ref.p.Seq() {
						t.Fatalf("setup: pipeline at %d, reference at %d", sub.p.Seq(), ref.p.Seq())
					}
					// What the owner has written so far, published or not.
					written := map[int64]int64{}
					for a := int64(0); a < words; a++ {
						if v := ref.own.Load(a); v != 0 && a != 3 {
							written[a] = v
						}
					}
					baseBefore, seqBefore := sub.own.BaseSeq(), sub.p.Seq()

					got, want := sub.own.Sync(pt.p, mayDefer), ref.own.Sync(pt.p, false)
					if got.Seq != want.Seq || (got.Committed || got.Staged) != want.Committed {
						t.Fatalf("outcome %+v, never-deferring reference %+v", got, want)
					}
					if got.Staged && !(pt.p == Release && mayDefer) {
						t.Fatalf("outcome %+v: only a Release that may defer stages", got)
					}
					if pt.p == Upgrade && got != (Outcome{}) {
						t.Fatalf("outcome %+v: an upgrade publishes nothing of its own", got)
					}
					if (got.Seq != 0) != (got.Committed || got.Staged) || got.Seq != 0 && got.Seq != seqBefore+1 {
						t.Fatalf("outcome %+v at pipeline sequence %d → %d", got, seqBefore, sub.p.Seq())
					}
					if sub.p.Seq() != ref.p.Seq() {
						t.Fatalf("pipeline at %d, reference at %d", sub.p.Seq(), ref.p.Seq())
					}
					wantBase := sub.p.Seq()
					if !pt.rebase {
						wantBase = baseBefore
						if got.Committed {
							wantBase = got.Seq
						}
					}
					if b := sub.own.BaseSeq(); b != wantBase {
						t.Fatalf("window based at %d, want %d (re-bases: %v)", b, wantBase, pt.rebase)
					}
					if rule, err := sub.own.Audit(); err != nil {
						t.Fatalf("%s: %v", rule, err)
					}
					for a := int64(0); a < words; a++ {
						if g, w := sub.own.Load(a), ref.own.Load(a); g != w {
							t.Fatalf("own load of word %d = %d, reference %d", a, g, w)
						}
						if pt.rebase && a == 3 && st.name == "staged+flushed" && sub.own.Load(a) != 33 {
							t.Fatalf("re-based window does not see the foreign publication: word 3 = %d", sub.own.Load(a))
						}
					}
					// ReadCommitted applies outstanding deferrals itself, so
					// whether the point settled shows in the deferral's fate.
					if deferred := mayDefer && st.name != "clean" && st.name != "unpublished"; deferred {
						flushed, _ := sub.own.Deferred()
						switch {
						case pt.settle && !flushed:
							t.Fatal("settling point left the window's deferred publication outstanding")
						case !pt.settle && st.name == "staged" && flushed:
							t.Fatal("a non-settling point with nothing to publish consumed the window's own deferred publication")
						}
					}

					// The next settling point: everything the owner wrote is
					// committed, identically on both sides.
					sub.own.Sync(Signal, false)
					ref.own.Sync(Signal, false)
					if sub.p.Seq() != ref.p.Seq() {
						t.Fatalf("after settling: pipeline at %d, reference at %d", sub.p.Seq(), ref.p.Seq())
					}
					for a := int64(0); a < words; a++ {
						g, w := sub.p.ReadCommitted(a), ref.p.ReadCommitted(a)
						if v, ok := written[a]; g != w || ok && g != v {
							t.Fatalf("committed word %d = %d, reference %d, written %d", a, g, w, v)
						}
					}
				})
			}
		}
	}
}

// TestDeferredFate: Deferred is false while the window's deferred
// publication is outstanding, reports flushed once a foreign publication has
// applied it, and drops the retained dirty set exactly when nothing was
// written since.
func TestDeferredFate(t *testing.T) {
	for _, rewrite := range []bool{false, true} {
		w := newTwin()
		w.own.Store(1, 11)
		if out := w.own.Sync(Release, true); !out.Staged {
			t.Fatalf("release that may defer: %+v", out)
		}
		if flushed, dropped := w.own.Deferred(); flushed || dropped {
			t.Fatalf("outstanding deferral reads flushed=%v dropped=%v", flushed, dropped)
		}
		w.fr.Sync(Acquire, false) // any foreign visibility point applies it first
		if got := w.fr.Load(1); got != 11 {
			t.Fatalf("foreign acquire re-based past the deferred publication: word 1 = %d", got)
		}
		if rewrite {
			w.own.Store(1, 12)
		}
		if flushed, dropped := w.own.Deferred(); !flushed || dropped == rewrite {
			t.Fatalf("rewrite=%v: flushed=%v dropped=%v", rewrite, flushed, dropped)
		}
		if got := w.own.SnapshotDirtyInto(nil).Words(); rewrite != (got == 1) {
			t.Fatalf("rewrite=%v: %d dirty words after Deferred", rewrite, got)
		}
	}
}

// TestPublicationContract covers what the engines (and benchmark/) rely on
// outside Sync, on both pipelines: Publish is (0, false) with nothing
// unpublished and (Pipeline.Seq(), true) after a store; StoreDirty makes a
// base-valued store count; a speculation snapshot rolls a run back; the flat
// pipeline answers every question degenerately — nothing to publish,
// sequence 0, zero Outcome at every point — while stores still land.
// "mempipe.publishes" counts once per publication, performed or deferred,
// and the nil recorder is safe.
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
				if out := th.Sync(Release, true); out.Staged != c.versioned || !c.versioned && out != (Outcome{}) {
					t.Fatalf("Release that may defer: %+v", out)
				}
				publish("Publish after a deferred publication", false)
				for pt := Acquire; pt <= Upgrade; pt++ {
					if out := th.Sync(pt, true); out != (Outcome{}) {
						t.Fatalf("point %d with nothing unpublished: %+v", pt, out)
					}
				}
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
