// Deferred publication ("commit staging"): the heap half of same-owner
// publication elision.
//
// An elided publication reserves a commit sequence number and moves the
// view's *delta* — the words written since its last publication event — into
// a per-view stage instead of merging them onto the version chains: the
// frame bitmaps are cleared and the twins re-snapshotted, so consecutive
// elided publications by the same thread each stage only what the section
// wrote (per-page bitmap OR plus a copy of the freshly marked words), and a
// chain of k same-owner critical sections costs k delta walks and one
// physical commit instead of k commits. The frames are retained unmarked:
// they keep serving the staged values to the owner's loads (and they seed
// re-bases, which overlay the outstanding stage on the new base).
//
// Soundness rests on one rule: every operation that could let another thread
// observe committed state — a physical Commit, an Update/UpdateTo re-base, a
// new view, a committed read, a heap hash, or another view's own staged
// publication — first applies every outstanding stage (except the operating
// view's own) at its reserved sequence. Because every base-advancing
// operation flushes first, no page version can ever exist above an
// outstanding stage's sequence, which makes the head insertion chain-safe,
// and no view can ever base itself past a deferred publication without
// absorbing it. The owner's own physical commit applies its own stage at the
// reserved sequence first, then commits the delta — so every traced commit
// sequence that anyone could have observed reaches the chains with exactly
// the values the trace promised.
//
// Like Commit, staging and flushing are serialized by the caller (all
// engines here publish while holding the deterministic turn); h.stageMu only
// protects the registry so that the defensive flushes on concurrently
// executed paths (barrier re-bases, post-run reads) are memory-safe.
package vheap

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// flushAll is the sequence bound that applies every outstanding stage. Only
// turn-holding operations may flush unbounded: a concurrently executed
// re-base (a barrier wake, a spawned thread's pin) must bound its flush by
// the pinned sequence, or it could consume a stage created at a later turn
// at a wall-clock-dependent moment — making the owner's elision-outcome
// history, and with it the gated elision counters, nondeterministic.
const flushAll = int64(math.MaxInt64)

// stage is one view's deferred publication: deep copies of the dirty pages
// the view had accumulated up to the most recent elided publication, tagged
// with that publication's reserved commit sequence.
type stage struct {
	view *View
	seq  int64 // reserved sequence of the newest elided publication

	pis   []int
	pages []*dirtyPage // deep copies, parallel to pis
	idx   map[int]int  // page number -> index in pis/pages

	queued  bool // registered in the heap's outstanding-stage list
	flushed bool // another thread applied this stage's contents
}

// reset empties the stage contents, recycling the page frames into the
// owning view's pool. Only the owner calls this (at its next staging after a
// flush), so the flusher never touches the pool.
func (s *stage) reset() {
	for i, d := range s.pages {
		s.view.releaseFrame(d)
		s.pages[i] = nil
	}
	s.pages = s.pages[:0]
	s.pis = s.pis[:0]
	clear(s.idx)
	s.flushed = false
}

// StagePublish defers the view's publication: it reserves the next commit
// sequence, moves the delta written since the last publication event into the
// view's stage (per-page bitmap OR plus a copy of the marked words, after
// which the frame marks clear and the twins re-snapshot), and re-bases the
// view on the reserved sequence with the frames retained. It returns the
// reserved sequence and true. When nothing was written since the view's last
// publication event it returns (0, false) after re-basing on the newest
// state — exactly the cases where an eager publish would have found an empty
// dirty set and skipped its commit, so the commit-sequence trajectory matches
// the eager path bit for bit. Foreign stages are flushed first either way, so
// the re-base observes every publication it must. Caller must hold the
// deterministic turn.
func (v *View) StagePublish() (int64, bool) {
	h := v.h
	h.flushStages(v, flushAll)
	if !v.unstaged {
		v.rebaseDirty(h.seq.Load())
		return 0, false
	}
	seq := h.seq.Load() + 1
	v.stageDirty(seq)
	h.seq.Store(seq)
	v.unstaged = false
	v.rebaseDirty(seq)
	h.ctr.stagePublishes.Add(1)
	return seq, true
}

// stageDirty moves the view's delta — the words marked since the last
// publication event — into its stage at seq. A page new to the stage is
// deep-copied whole (its bitmap is the delta); a page already staged merges
// by copying the marked words and OR-ing the bitmaps, keeping the stage's
// original twin for words staged earlier so a value rewritten back to its
// pre-stage contents still publishes. After the merge the frame's marks
// clear and its twin re-snapshots to the frame values: the frame now serves
// the staged values to the owner's loads, and the next elided section stages
// only what it writes.
func (v *View) stageDirty(seq int64) {
	s := v.stg
	if s == nil {
		s = &stage{view: v, idx: make(map[int]int)}
		v.stg = s
	} else if s.flushed {
		// The previous stage was consumed by another thread's flush; its
		// object and frames are free for reuse at the owner's next turn.
		s.reset()
	}
	s.seq = seq
	for _, pi := range v.dirtyIdx {
		d := v.dirtyTab[pi]
		if !hasMarks(d) {
			continue
		}
		if k, ok := s.idx[pi]; ok {
			dst := s.pages[k]
			for bi, mask := range d.dirty {
				fresh := mask &^ dst.dirty[bi]
				dst.dirty[bi] |= mask
				for m := mask; m != 0; m &= m - 1 {
					i := bi<<6 + bits.TrailingZeros64(m)
					dst.words[i] = d.words[i]
				}
				// Words staged for the first time bring their twin along;
				// words already staged keep the twin of their first staging,
				// so silence is judged against the pre-stage contents.
				for m := fresh; m != 0; m &= m - 1 {
					i := bi<<6 + bits.TrailingZeros64(m)
					dst.twin[i] = d.twin[i]
				}
			}
		} else {
			// Stage frames come from the owner view's pool: the stage only
			// grows and shrinks at the owner's turns, so sharing the pool is
			// race-free and staging allocates nothing once it warms up.
			dst := v.frame()
			copyInto(dst, d)
			s.idx[pi] = len(s.pis)
			s.pis = append(s.pis, pi)
			s.pages = append(s.pages, dst)
		}
		copy(d.twin, d.words)
		clear(d.dirty)
	}
	h := v.h
	if !s.queued {
		h.stageMu.Lock()
		s.queued = true
		h.stages = append(h.stages, s)
		h.nstaged.Store(int32(len(h.stages)))
		h.stageMu.Unlock()
	}
}

// Unpublished reports whether any store happened since the view's last
// publication event (Commit or StagePublish). Under elision this — not the
// dirty set, which staging retains — is the "anything to publish?" test, and
// in eager operation the two are identical (Commit clears both).
func (v *View) Unpublished() bool { return v.unstaged }

// SettleDeferred applies every outstanding deferred publication, the view's
// own included. Engines call it at the turn before a thread parks, spawns a
// child, or exits — the points after which a concurrently executing thread
// pins a re-base to a sequence at or above the view's reserved one. Settling
// at the turn keeps those pinned flushes no-ops, so whether a stage was
// consumed by another thread stays a function of the turn schedule alone.
// Caller must hold the deterministic turn.
func (v *View) SettleDeferred() { v.h.flushStages(nil, flushAll) }

// StageFlushed reports whether the view's most recent deferred publication
// was applied by another thread (the elision "miss" signal the engine's
// adaptive policy feeds on). It is meaningful until the next StagePublish or
// Commit. Caller must hold the deterministic turn.
func (v *View) StageFlushed() bool {
	return v.stg != nil && v.stg.flushed
}

// DropClean recycles the view's retained dirty set once every marked word's
// value has been published: legal only when no store has happened since the
// view's last publication event and its own stage is no longer outstanding
// (applied by a flush, or never created). Engines call it at force points
// after settling, so a thread's dirty set does not grow without bound across
// chains of elided sections — without it every later commit would re-walk
// frames that have long since become silent. The base is NOT moved: loads
// before the caller's next re-base see the base state, the same contract an
// eager commit imposes.
func (v *View) DropClean() {
	if v.unstaged {
		panic("vheap: DropClean with unpublished writes")
	}
	if s := v.stg; s != nil && s.queued {
		panic("vheap: DropClean with an outstanding deferred publication")
	}
	v.clearDirty()
	v.invalidateClean()
}

// flushStages applies every outstanding deferred publication except skip's
// own, oldest reserved sequence first, skipping stages whose reserved
// sequence is above upTo (pass flushAll for no bound — legal only while
// holding the deterministic turn; see flushAll). The bound is prefix-closed:
// sequences are reserved in global order and every StagePublish flushes all
// foreign stages first, so no stage at or below upTo can sit under one above
// it on the same page. The fast path — no stages anywhere — is one atomic
// load. Stages detached here are marked flushed so their owners can observe
// the outcome at their next turn.
func (h *Heap) flushStages(skip *View, upTo int64) {
	if h.nstaged.Load() == 0 {
		return
	}
	h.stageMu.Lock()
	var todo []*stage
	keep := h.stages[:0]
	for _, s := range h.stages {
		if s.view == skip || s.seq > upTo {
			keep = append(keep, s)
			continue
		}
		s.queued = false
		s.flushed = true
		todo = append(todo, s)
	}
	h.stages = keep
	h.nstaged.Store(int32(len(h.stages)))
	h.stageMu.Unlock()
	if len(todo) == 0 {
		return
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].seq < todo[j].seq })
	for _, s := range todo {
		h.applyStage(s)
	}
}

// applyStage merges one detached stage onto the version chains at its
// reserved sequence. The merge is commitPage verbatim — same silent-store
// suppression, same trim policy — so a flushed elided section publishes
// byte-identical pages to the eager commits it replaced. The heap sequence
// is not advanced: the reservation already advanced it at stage time.
func (h *Heap) applyStage(s *stage) {
	scanned := int64(0)
	pages := int64(0)
	changed := 0
	var pageHits, pageMisses int64
	h.mu.Lock()
	for k, pi := range s.pis {
		if head := h.slots[pi].Load(); head.seq >= s.seq {
			h.mu.Unlock()
			panic(fmt.Sprintf("vheap: deferred publication at seq %d under page %d head seq %d — a commit overtook an outstanding stage",
				s.seq, pi, head.seq))
		}
		if n := h.commitPage(pi, s.pages[k], s.seq, &scanned, &pageHits, &pageMisses); n > 0 {
			pages++
			changed += n
		}
	}
	h.mu.Unlock()
	h.commits.Add(1)
	h.pagesWritten.Add(pages)
	h.wordsMerged.Add(int64(changed))
	h.wordsScanned.Add(scanned)
	if pageHits != 0 || pageMisses != 0 {
		h.pageHits.Add(pageHits)
		h.pageMisses.Add(pageMisses)
	}
	h.ctr.stageFlushes.Add(1)
	h.countCommit(pages, int64(changed), scanned, 0, 0, pageHits, pageMisses)
}

// RefreshDirty re-bases the view on the newest committed state while
// keeping the dirty set — the elided analogue of Update for a view whose
// dirty words are retained across publication points. Other views' deferred
// publications are flushed first, so the new base observes them; the view's
// own stage (if any) stays outstanding — that is the chaining win. Caller
// must hold the deterministic turn.
func (v *View) RefreshDirty() {
	v.h.flushStages(v, flushAll)
	v.rebaseDirty(v.h.seq.Load())
}

// rebaseDirty re-bases the view on newBase while keeping the retained
// frames: the re-base an elided publication performs in place of the eager
// path's commit-then-Update. Frames whose base page advanced (a foreign
// commit or a flushed stage — possibly the view's own, handing its values
// back) are rebuilt over the new base: words marked since the last
// publication event keep the view's private values, everything else adopts
// the new base overlaid with the view's own outstanding stage (whose
// reserved publication is not on the chains yet but is committed state the
// owner must keep seeing), and the twin is re-snapshotted — so a word whose
// deferred value already reached the head becomes a silent store and is not
// merged twice. Caller must hold the deterministic turn.
func (v *View) rebaseDirty(newBase int64) {
	oldBase := v.base.Load()
	if newBase == oldBase {
		return
	}
	if newBase < oldBase {
		panic(fmt.Sprintf("vheap: rebaseDirty(%d) would move the base backwards from %d", newBase, oldBase))
	}
	v.base.Store(newBase)
	v.h.noteRebase(oldBase)
	s := v.stg
	if s == nil || !s.queued {
		s = nil
	}
	overlay := func(pi int) *dirtyPage {
		if s == nil {
			return nil
		}
		if k, ok := s.idx[pi]; ok {
			return s.pages[k]
		}
		return nil
	}
	v.invalidateClean()
	for _, pi := range v.dirtyIdx {
		d := v.dirtyTab[pi]
		if p := v.h.pageAt(pi, newBase); p.seq != d.baseSeq {
			rebuildFrame(d, p, overlay(pi))
		}
	}
}

// rebuildFrame re-bases one dirty frame on page version p: marked words keep
// their private values, everything else adopts p overlaid with the view's
// own outstanding staged page sp (nil when the page is not staged): a staged
// word's reserved publication is committed state that has not reached the
// chains yet, so the owner's window — and the twin that decides future
// silence — must carry it.
func rebuildFrame(d *dirtyPage, p *page, sp *dirtyPage) {
	copy(d.twin, p.words)
	for i, w := range p.words {
		if !d.marked(i) {
			d.words[i] = w
		}
	}
	if sp != nil {
		for bi, mask := range sp.dirty {
			for m := mask; m != 0; m &= m - 1 {
				i := bi<<6 + bits.TrailingZeros64(m)
				d.twin[i] = sp.words[i]
				if !d.marked(i) {
					d.words[i] = sp.words[i]
				}
			}
		}
	}
	d.baseSeq = p.seq
}

// AuditDeferred verifies the deferred-publication invariant: every page of
// the view's outstanding stage must still hold a live frame in the view, and
// every staged word the owner has not rewritten since must carry the staged
// value in that frame — the frame is what serves the reserved publication's
// values to the owner's loads (and to re-bases and revert restores), so a
// divergence means deferred state was dropped or corrupted. Used by the
// invariant checker's deferred-publish rule. Caller must hold the
// deterministic turn.
func (v *View) AuditDeferred() error {
	s := v.stg
	if s == nil || !s.queued {
		return nil
	}
	for k, pi := range s.pis {
		d := v.dirtyTab[pi]
		if d == nil {
			return fmt.Errorf("vheap: page %d is staged for deferred publication but holds no frame in the view — a revert or commit dropped deferred state",
				pi)
		}
		st := s.pages[k]
		for bi, mask := range st.dirty {
			for m := mask; m != 0; m &= m - 1 {
				i := bi<<6 + bits.TrailingZeros64(m)
				if !d.marked(i) && d.words[i] != st.words[i] {
					return fmt.Errorf("vheap: page %d word %d is staged as %d but the view's frame serves %d and the word is not rewritten — deferred state was corrupted",
						pi, i, st.words[i], d.words[i])
				}
			}
		}
	}
	return nil
}
