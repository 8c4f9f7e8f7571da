package mempipe

import (
	"fmt"
	"testing"

	"lazydet/internal/shmem"
	"lazydet/internal/telemetry"
	"lazydet/internal/vheap"
)

// TestPublicationContract walks one thread window of each pipeline through
// the publication sequence the engines (internal/core) rely on. The versioned
// pipeline must answer as documented on Thread; the flat one must answer
// every question degenerately — never dirty, nothing to publish, sequence 0 —
// while stores still land. Both run with and without a recorder:
// "mempipe.publishes" counts once per publication, eager or staged, and the
// nil recorder is safe.
func TestPublicationContract(t *testing.T) {
	for _, c := range []struct {
		name      string
		versioned bool
		pipe      func(tel *telemetry.Recorder) Pipeline
	}{
		{"versioned", true, func(tel *telemetry.Recorder) Pipeline { return NewVersioned(vheap.New(64), tel) }},
		{"flat", false, func(*telemetry.Recorder) Pipeline { return NewFlat(shmem.New(64)) }},
	} {
		for _, tel := range []*telemetry.Recorder{nil, telemetry.New()} {
			t.Run(fmt.Sprintf("%s/recorder=%v", c.name, tel != nil), func(t *testing.T) {
				p := c.pipe(tel)
				th := p.NewThread(0)
				defer th.Close()
				state := func(when string, unpublished, dirty bool, dirtyWords int) {
					t.Helper()
					if !c.versioned {
						unpublished, dirty, dirtyWords = false, false, 0
					}
					if th.Unpublished() != unpublished || th.Dirty() != dirty || th.DirtyWords() != dirtyWords {
						t.Fatalf("%s: unpublished=%v dirty=%v dirtyWords=%d, want %v %v %d",
							when, th.Unpublished(), th.Dirty(), th.DirtyWords(), unpublished, dirty, dirtyWords)
					}
				}
				publish := func(when string, f func() (int64, bool), want bool) {
					t.Helper()
					want = want && c.versioned
					seq, ok := f()
					if ok != want || (ok && seq != p.Seq()) || (!ok && seq != 0) {
						t.Fatalf("%s: (%d, %v) at pipeline sequence %d, want published=%v at that sequence (0 when nothing is)",
							when, seq, ok, p.Seq(), want)
					}
				}

				publish("Publish on a fresh window", th.Publish, false)
				state("fresh window", false, false, 0)

				th.Store(3, 7)
				state("after a store", true, true, 1)
				if got := p.ReadCommitted(3); c.versioned && got != 0 {
					t.Fatalf("an unpublished store is already committed: word 3 = %d", got)
				}
				publish("Publish after a store", th.Publish, true)
				state("after Publish", false, false, 0)
				publish("second Publish", th.Publish, false)

				th.Store(4, 9)
				publish("StagePublish after a store", th.StagePublish, true)
				state("after StagePublish (dirty set retained, nothing unpublished)", false, true, 0)
				publish("Publish after StagePublish", th.Publish, false)
				publish("StagePublish with nothing new", th.StagePublish, false)
				if th.StageFlushed() {
					t.Fatal("the stage reads as flushed by another thread, and there is none")
				}
				if err := th.AuditDeferred(); err != nil {
					t.Fatal(err)
				}
				th.SettleDeferred()
				th.DropClean()
				state("after SettleDeferred + DropClean", false, false, 0)
				th.RefreshDirty()
				th.Refresh()
				th.RefreshTo(p.Seq())
				if c.versioned && th.BaseSeq() != p.Seq() || !c.versioned && th.BaseSeq() != 0 {
					t.Fatalf("window based at %d, pipeline at %d", th.BaseSeq(), p.Seq())
				}

				th.StoreDirty(5, 0) // equal to the base: only StoreDirty makes it count
				state("after StoreDirty of the base value", true, true, 1)
				publish("Publish after StoreDirty", th.Publish, true)
				for addr, want := range map[int64]int64{3: 7, 4: 9, 5: 0} {
					if th.Load(addr) != want || p.ReadCommitted(addr) != want {
						t.Fatalf("word %d: window %d, committed %d, want %d", addr, th.Load(addr), p.ReadCommitted(addr), want)
					}
				}
				if err := th.AuditDirty(); err != nil {
					t.Fatal(err)
				}

				wantSeq, wantCount := int64(3), int64(3)
				if !c.versioned {
					wantSeq, wantCount = 0, 0
				}
				if p.Seq() != wantSeq || p.Shards() != 1 { // a 64-word heap is one page, so one shard
					t.Fatalf("pipeline at sequence %d over %d shards, want %d over 1", p.Seq(), p.Shards(), wantSeq)
				}
				if tel != nil && tel.Counter("mempipe.publishes") != wantCount {
					t.Fatalf("mempipe.publishes = %d, want %d (one per publication)", tel.Counter("mempipe.publishes"), wantCount)
				}

				// Speculation needs write isolation: versioned windows roll a
				// run back, flat ones refuse to begin one.
				mustPanic := func(what string, f func()) {
					t.Helper()
					defer func() {
						if recover() == nil {
							t.Fatalf("%s on flat memory did not panic", what)
						}
					}()
					f()
				}
				if !c.versioned {
					mustPanic("SnapshotDirtyInto", func() { th.SnapshotDirtyInto(nil) })
					mustPanic("RevertTo", func() { th.RevertTo(nil) })
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
