package vheap

import (
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is the naive model every heap operation is checked against:
// committed memory is one whole array per sequence number, a view is a base
// sequence plus the words it wrote, and a publication writes every word that
// differs from its twin (or was StoreDirty'ed) into a copy of the newest
// array. No pages, tables, bitmaps, pools or chains — which is the point:
// those may change how a word is found, never which.
type refHeap struct{ seqs [][]int64 }

type refWord struct {
	val, twin int64
	forced    bool // StoreDirty hit a word equal to its twin: publish regardless
}

func (w refWord) differs() bool { return w.forced || w.val != w.twin }

type refView struct {
	base  int
	dirty map[int64]refWord
}

type refSnap struct {
	dirty map[int64]refWord
	words int
}

func (h *refHeap) newest() int { return len(h.seqs) - 1 }

func (v *refView) load(h *refHeap, addr int64) int64 {
	if w, ok := v.dirty[addr]; ok {
		return w.val
	}
	return h.seqs[v.base][addr]
}

func (v *refView) store(h *refHeap, addr, val int64, force bool) {
	w, ok := v.dirty[addr]
	if !ok {
		w.twin = h.seqs[v.base][addr]
	}
	w.val = val
	if force && w.twin == val {
		w.forced = true
	}
	v.dirty[addr] = w
}

func (v *refView) dirtyWords() (n int) {
	for _, w := range v.dirty {
		if w.differs() {
			n++
		}
	}
	return n
}

// commit appends a new sequence: the newest array plus v's differing words.
func (v *refView) commit(h *refHeap) (seq, changed int) {
	next := append([]int64(nil), h.seqs[h.newest()]...)
	for addr, w := range v.dirty {
		if w.differs() {
			next[addr] = w.val
			changed++
		}
	}
	h.seqs = append(h.seqs, next)
	clear(v.dirty)
	v.base = h.newest()
	return v.base, changed
}

func (v *refView) revert(h *refHeap) int {
	n := v.dirtyWords()
	clear(v.dirty)
	v.base = h.newest()
	return n
}

func (v *refView) snapshot() refSnap {
	s := refSnap{dirty: make(map[int64]refWord, len(v.dirty)), words: v.dirtyWords()}
	for a, w := range v.dirty {
		s.dirty[a] = w
	}
	return s
}

func (v *refView) revertTo(s refSnap) int {
	n := max(v.dirtyWords()-s.words, 0)
	clear(v.dirty)
	for a, w := range s.dirty {
		v.dirty[a] = w
	}
	return n
}

// TestHeapMatchesModel drives three views of one heap, in one goroutine,
// through seeded random interleavings of every View operation, and compares
// the heap with the model after each: loads of the touched word through all
// three views, dirty counts, every (seq, changed) and discard count, and at
// the end the whole committed image — with all three audits after every step.
//
// Two regimes: "racy", where any view writes any word — last committer
// wins, silent stores lose, StoreDirty wins — and "owned", where view i
// writes only words ≡ i mod 3 but reads everything — false sharing of pages
// between views, foreign commits between a store and its publication.
func TestHeapMatchesModel(t *testing.T) {
	const words, steps = 192, 500
	for _, pageWords := range []int{16, 32} {
		for _, owned := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("page%d/owned=%v/seed%d", pageWords, owned, seed)
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(seed))
					h := New(words, WithPageWords(pageWords))
					ref := &refHeap{seqs: [][]int64{make([]int64, words)}}
					var views [3]*View
					var refs [3]*refView
					var snaps [3]*DirtySnapshot // reused across runs, as the engine does
					var refSnaps [3]*refSnap    // non-nil while a speculative run is open
					for i := range views {
						views[i], refs[i] = h.NewView(), &refView{dirty: map[int64]refWord{}}
					}
					for step := 0; step < steps; step++ {
						i := r.Intn(3)
						v, m := views[i], refs[i]
						addr := r.Int63n(words)
						if owned {
							addr = addr/3*3 + int64(i)
						}
						val := 1 + r.Int63n(4) // few values: silent stores are common
						op := r.Intn(14)
						if refSnaps[i] != nil && op >= 8 {
							op = 8 + op%2 // an open run only stores, loads and ends
						}
						var got, want [2]int
						switch {
						case op < 6:
							v.Store(addr, val)
							m.store(ref, addr, val, false)
						case op < 8:
							v.StoreDirty(addr, val)
							m.store(ref, addr, val, true)
						case op == 8: // Load: compared below
						case op == 9 && refSnaps[i] != nil:
							got[0], want[0] = v.RevertTo(snaps[i]), m.revertTo(*refSnaps[i])
							refSnaps[i] = nil
						case op == 9:
							snaps[i] = v.SnapshotDirtyInto(snaps[i])
							s := m.snapshot()
							refSnaps[i] = &s
							got[0], want[0] = snaps[i].Words(), s.words
						case op < 12:
							seq, changed := v.Commit()
							got = [2]int{int(seq), changed}
							want[0], want[1] = m.commit(ref)
						case op == 12:
							got[0], want[0] = v.Revert(), m.revert(ref)
						case op == 13 && len(m.dirty) == 0:
							v.Update()
							m.base = ref.newest()
						}
						if got != want {
							t.Fatalf("step %d view %d op %d: heap returned %v, model %v", step, i, op, got, want)
						}
						if g, w := int(h.Seq()), ref.newest(); g != w {
							t.Fatalf("step %d: heap at sequence %d, model at %d", step, g, w)
						}
						for j := range views {
							if g, w := views[j].Load(addr), refs[j].load(ref, addr); g != w {
								t.Fatalf("step %d (view %d op %d): view %d loads word %d = %d, model %d", step, i, op, j, addr, g, w)
							}
							if g, w := views[j].DirtyWords(), refs[j].dirtyWords(); g != w {
								t.Fatalf("step %d (view %d op %d): view %d has %d dirty words, model %d", step, i, op, j, g, w)
							}
							if g, w := views[j].DirtyPages() != 0, len(refs[j].dirty) != 0; g != w {
								t.Fatalf("step %d (view %d op %d): view %d dirty = %v, model %v", step, i, op, j, g, w)
							}
							for _, err := range []error{views[j].AuditDirty(), views[j].AuditTables()} {
								if err != nil {
									t.Fatalf("step %d (view %d op %d): view %d: %v", step, i, op, j, err)
								}
							}
						}
						if err := h.Audit(); err != nil {
							t.Fatalf("step %d (view %d op %d): %v", step, i, op, err)
						}
					}
					for a := int64(0); a < words; a++ {
						if g, w := h.ReadCommitted(a), ref.seqs[ref.newest()][a]; g != w {
							t.Fatalf("committed word %d = %d, model %d", a, g, w)
						}
					}
				})
			}
		}
	}
}
