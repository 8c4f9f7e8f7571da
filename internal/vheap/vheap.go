// Package vheap implements the versioned shared memory substrate that gives
// the strong-determinism engines their thread isolation. It is a user-space
// reimplementation of CONVERSION (Merrifield & Eriksson, EuroSys'13), the
// multi-version memory system LazyDet and Consequence are built on:
//
//   - Shared memory is an array of 64-bit words divided into fixed-size
//     pages.
//   - Each page slot holds a central version list: an immutable chain of
//     page versions, newest first, each tagged with the commit sequence
//     number that produced it.
//   - A thread reads and writes through a View. Reads resolve against the
//     newest page version no newer than the view's base sequence; the first
//     write to a page takes a private frame that remembers that base version
//     and copies nothing. Every store writes its word into the frame and
//     marks it in a dirty-word bitmap; a word the view never stored to is
//     still read from the base version.
//   - Commit publishes, for every dirty page, the marked words that differ
//     from the base version, merged word-by-word onto the current head
//     version. The base version is the diff reference (what other systems
//     keep a private "twin" copy for): a view's base cannot move while it
//     has a dirty page, so the version it resolved at the first write is
//     exactly what a twin would hold.
//     Commit work is therefore proportional to the number of words written,
//     not the page size. Commits are serialized (in this repository, by the
//     deterministic turn), so the merge order — and therefore the heap
//     contents — is deterministic.
//   - Update re-bases a view on the newest committed state; Revert discards
//     all private modifications. Both are O(dirty set).
//
// The hot path is organized as a software TLB, mirroring the flat per-thread
// page tables the paper's threads read and write through:
//
//   - A View's dirty and clean lookups are dense slices indexed by page
//     number (the page count is fixed at heap construction), so a Load is an
//     array index plus at most one version-chain resolution — no hashing.
//   - Clean-resolution entries are validated by a per-view generation
//     stamp: re-basing the view (Commit, Update, Revert) bumps the
//     generation instead of clearing or reallocating the table.
//   - dirtyPage frames (private words + bitmaps + base pointer) come from a
//     per-view free list, recycled at every Commit/Revert, and published page
//     versions come from a per-heap free list refilled by chain trimming —
//     steady-state sync epochs allocate nothing.
//
// One heap mutex guards every version chain, the published-page pool and
// trimming. It is safety code, not a scheduler: commits are already
// serialized by the deterministic turn, which alone fixes commit sequence
// numbers and publication order, so the mutex never decides an order — it
// only keeps the defensive concurrent paths (barrier re-bases, post-run
// reads, audits) memory-safe.
//
// Version chains are trimmed below the oldest base sequence still referenced
// by a live view (the floor). A commit trims each chain it publishes to; a
// chain left with versions below its head goes on a tail list, which a later
// commit sweeps at the newer floor once the floor has moved and as many
// pages have been committed as the list holds — so a page that stops
// receiving commits still drops the versions no view can read, at O(1)
// amortized cost per committed page. This is the space advantage the paper
// ascribes to DDRF (§4.2): the heap holds one version per page plus short
// tails for in-flight views (t views → at most t extra bases), rather than
// the l+t versions a DLRC-style system must retain. That DLRC count needs no
// second heap mode:
// a DLRC heap keeps every version it ever linked, so it holds the initial
// page population plus Stats().Pages, which counts exactly one per linked
// version.
//
// Word-level diffing against the base version gives the same
// write-isolation semantics as the paper's system, including its documented
// limitation: a "silent store" (a store that writes the value the base
// version already holds) produces no diff and is lost if another thread
// commits a different value for the same word. The bitmap commit preserves
// this exactly: a marked word merges only when it differs from the base
// version, or when StoreDirty forced it.
package vheap

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lazydet/internal/telemetry"
)

// DefaultPageWords is the default page size in 64-bit words (2 KiB pages).
const DefaultPageWords = 256

// page is one immutable version of one page, linked into that slot's
// version list. Only the prev pointer mutates (for trimming), hence atomic.
type page struct {
	seq   int64 // commit sequence that created this version
	prev  atomic.Pointer[page]
	words []int64
}

// Heap is the shared versioned memory. Lock order, where both are held: mu
// before viewMu.
type Heap struct {
	pageWords int
	pageShift uint
	pageMask  int64
	npages    int
	seq       atomic.Int64 // newest committed sequence
	slots     []atomic.Pointer[page]

	// zero is the single shared all-zero page every slot starts from. It can
	// appear in many chains at once, so trimming must never recycle it.
	zero *page

	mu sync.Mutex // guards the version chains, pagePool, lastFloor, the tail list, stats and trims

	// pagePool is the free list of published page frames, refilled by chain
	// trimming: a version cut below the trim floor is unreachable by every
	// live view (their bases are at or above the floor, so no chain walk
	// descends past the floor's terminal node), which makes its frame safe
	// to overwrite in a later commit. Guarded by mu.
	pagePool []*page

	// Trim-floor cache: recomputing the floor is an O(views) scan under
	// viewMu, so commits reuse the last computed value until it is
	// invalidated — by view registration/unregistration, or by a re-base of
	// a view that sat at (or below) the cached floor. View bases only move
	// forward, and NewView bases at the newest commit (>= every floor), so a
	// cached floor is always a lower bound of the true floor: stale only
	// ever means trimming less, never over-trimming.
	floorCache atomic.Int64
	floorValid atomic.Bool

	// lastFloor is the floor the most recent trim used, -1 before any. The
	// true floor is monotone (bases only move forward, new views base at the
	// newest commit) and the cache revalidates against the current view set,
	// so the sequence of floors trims use must never decrease — the
	// monotonicity invariant the checker audits. Guarded by mu.
	lastFloor int64

	// tails lists, in the order they were queued, the pages whose chain
	// holds versions below its head; tailed[pi] says whether pi is listed.
	// sweptFloor is the floor of the last sweep and sinceSweep the pages
	// committed since (sweepTailsLocked). Guarded by mu.
	tails      []int
	tailed     []bool
	sweptFloor int64
	sinceSweep int64

	viewMu sync.Mutex // guards the live-view registry
	views  []*View    // live views in no particular order, for trim floor computation

	// stats are the cumulative commit counters, added to by each Commit in
	// the same critical section that merges its pages. Guarded by mu.
	stats CommitStats

	// tel, if non-nil, receives commit metrics ("vheap.*" counters and the
	// commit-size histogram). Nil costs one pointer compare per commit.
	tel *telemetry.Recorder
	ctr heapCounters
}

// heapCounters are tel's "vheap.*" counter cells, resolved once in New: every
// commit adds to them, so the path takes no registry mutex and hashes no
// name. All nil (and nil-safe) without telemetry.
type heapCounters struct {
	commits, pages, words, scanned               *telemetry.Counter
	frameHits, frameMisses, pageHits, pageMisses *telemetry.Counter
}

// Option configures a Heap.
type Option func(*heapConfig)

type heapConfig struct {
	pageWords int
	tel       *telemetry.Recorder
}

// WithPageWords sets the page size in words; it must be a power of two.
func WithPageWords(n int) Option { return func(c *heapConfig) { c.pageWords = n } }

// WithTelemetry publishes the heap's commit-path measurements into rec:
// cumulative "vheap.commits", "vheap.pages_committed", "vheap.words_committed",
// and "vheap.words_scanned" counters, a "vheap.commit_words" histogram of
// per-commit merged word counts, and the pool counters
// "vheap.frame_pool_hits"/"vheap.frame_pool_misses" (dirty-page frames) and
// "vheap.page_pool_hits"/"vheap.page_pool_misses" (published page frames).
// All of them are deterministic for deterministic engines, which make every
// view before the run and commit, re-base, revert and close views only at
// turns: commit contents and order, and every move of the trim floor, are
// turn-ordered.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(c *heapConfig) { c.tel = rec }
}

// New creates a heap of the given size in words. The initial contents are
// all zero at sequence 0.
func New(words int64, opts ...Option) *Heap {
	cfg := heapConfig{pageWords: DefaultPageWords}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.pageWords <= 0 || cfg.pageWords&(cfg.pageWords-1) != 0 {
		panic(fmt.Sprintf("vheap: page size %d is not a positive power of two", cfg.pageWords))
	}
	shift := uint(0)
	for 1<<shift != cfg.pageWords {
		shift++
	}
	np := int((words + int64(cfg.pageWords) - 1) >> shift)
	if np == 0 {
		np = 1
	}
	h := &Heap{
		pageWords:  cfg.pageWords,
		pageShift:  shift,
		pageMask:   int64(cfg.pageWords - 1),
		npages:     np,
		slots:      make([]atomic.Pointer[page], np),
		lastFloor:  -1,
		tailed:     make([]bool, np),
		sweptFloor: -1,
		tel:        cfg.tel,
		ctr: heapCounters{
			commits:     cfg.tel.Handle("vheap.commits"),
			pages:       cfg.tel.Handle("vheap.pages_committed"),
			words:       cfg.tel.Handle("vheap.words_committed"),
			scanned:     cfg.tel.Handle("vheap.words_scanned"),
			frameHits:   cfg.tel.Handle("vheap.frame_pool_hits"),
			frameMisses: cfg.tel.Handle("vheap.frame_pool_misses"),
			pageHits:    cfg.tel.Handle("vheap.page_pool_hits"),
			pageMisses:  cfg.tel.Handle("vheap.page_pool_misses"),
		},
	}
	h.zero = &page{seq: 0, words: make([]int64, cfg.pageWords)}
	for i := range h.slots {
		h.slots[i].Store(h.zero) // shared zero page; copied on first write
	}
	return h
}

// TrimFloor returns the trim floor the most recent trim used (-1 before
// any). The true floor is monotone, so the value must never decrease across
// calls — the invariant checker's trim-floor rule.
func (h *Heap) TrimFloor() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastFloor
}

// Words returns the heap size in words.
func (h *Heap) Words() int64 { return int64(h.npages) * int64(h.pageWords) }

// Seq returns the newest committed sequence number.
func (h *Heap) Seq() int64 { return h.seq.Load() }

// SetInitial writes directly into the committed state. It must only be used
// before any views exist (to load a workload's initial data) — which is what
// makes writing in place legal: page versions only become immutable once a
// view can read them.
func (h *Heap) SetInitial(addr, val int64) {
	pi := addr >> h.pageShift
	off := addr & h.pageMask
	h.mu.Lock()
	defer h.mu.Unlock()
	head := h.slots[pi].Load()
	if head == h.zero {
		// First touch: give the slot a private page. The shared zero page
		// backs every untouched slot and must stay all-zero.
		np := &page{seq: head.seq, words: make([]int64, h.pageWords)}
		np.prev.Store(head.prev.Load())
		h.slots[pi].Store(np)
		head = np
	}
	head.words[off] = val
}

// ReadCommitted returns the committed value of addr at the newest version.
// It is used by validation and by the harness after a run completes.
func (h *Heap) ReadCommitted(addr int64) int64 {
	p := h.slots[addr>>h.pageShift].Load()
	return p.words[addr&h.pageMask]
}

// pageAt resolves the newest page version with seq <= base for page index pi.
func (h *Heap) pageAt(pi int, base int64) *page {
	p := h.slots[pi].Load()
	for p.seq > base {
		prev := p.prev.Load()
		if prev == nil {
			panic("vheap: version older than base was trimmed while still referenced")
		}
		p = prev
	}
	return p
}

// trimFloorLocked returns the oldest base sequence referenced by any live
// view. Caller holds h.viewMu.
func (h *Heap) trimFloorLocked() int64 {
	floor := int64(math.MaxInt64)
	for _, v := range h.views {
		if b := v.base.Load(); b < floor {
			floor = b
		}
	}
	return floor
}

// noteRebase invalidates the cached trim floor when a view moves its base
// forward from oldBase: if that view sat at (or below) the cached floor it
// may have been the floor holder, so the next commit must recompute. Views
// strictly above a cached floor cannot lower it by moving forward.
func (h *Heap) noteRebase(oldBase int64) {
	if h.floorValid.Load() && oldBase <= h.floorCache.Load() {
		h.floorValid.Store(false)
	}
}

// cachedFloor returns the cached trim floor, recomputing it from the
// live-view registry when invalid. Caller holds h.mu (lock order: mu before
// viewMu).
func (h *Heap) cachedFloor() int64 {
	if h.floorValid.Load() {
		return h.floorCache.Load()
	}
	h.viewMu.Lock()
	floor := h.trimFloorLocked()
	h.viewMu.Unlock()
	h.floorCache.Store(floor)
	h.floorValid.Store(true)
	return floor
}

// Hash returns an FNV-1a hash of the newest committed heap contents. Two
// deterministic runs of the same program must produce equal hashes.
func (h *Heap) Hash() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.slots {
		for _, w := range h.slots[i].Load().words {
			buf[0] = byte(w)
			buf[1] = byte(w >> 8)
			buf[2] = byte(w >> 16)
			buf[3] = byte(w >> 24)
			buf[4] = byte(w >> 32)
			buf[5] = byte(w >> 40)
			buf[6] = byte(w >> 48)
			buf[7] = byte(w >> 56)
			f.Write(buf[:])
		}
	}
	return f.Sum64()
}

// CommitStats are cumulative counters over a heap's commit path.
type CommitStats struct {
	// Commits is the number of Commit calls.
	Commits int64
	// Pages is the number of page versions published: one per page a
	// commit changed, none for a page whose stores were all silent.
	Pages int64
	// Words is the number of words merged onto head versions — the change
	// set size the paper's Figure 12 plots.
	Words int64
	// WordsScanned is the number of words commits examined to find the
	// merged ones: per dirty page, the bitmap's population count. The ratio
	// WordsScanned/Words is the overhead of locating a change.
	WordsScanned int64
	// FrameHits/FrameMisses count dirty-page frames served from a view's
	// free list vs freshly allocated (flushed into the heap totals at each
	// commit).
	FrameHits, FrameMisses int64
	// PageHits/PageMisses count published page frames served from the
	// heap's trim-refilled pool vs freshly allocated.
	PageHits, PageMisses int64
}

// Stats returns cumulative commit statistics.
func (h *Heap) Stats() CommitStats {
	h.mu.Lock()
	st := h.stats
	h.mu.Unlock()
	return st
}

// LiveVersions counts page versions currently reachable from the version
// lists: the retention DDRF pays (paper §4.2). The DLRC-style count, every
// version ever written, is the page count plus Stats().Pages.
func (h *Heap) LiveVersions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i := range h.slots {
		for p := h.slots[i].Load(); p != nil; p = p.prev.Load() {
			n++
		}
	}
	return n
}

// TouchedPages counts the pages whose head is not the shared zero page: a
// commit or SetInitial gave them data of their own. Once no view can read
// an older version, LiveVersions is this count plus one per untouched page.
func (h *Heap) TouchedPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i := range h.slots {
		if h.slots[i].Load() != h.zero {
			n++
		}
	}
	return n
}

// Audit verifies the heap's structural invariants: every page version chain
// is strictly decreasing in commit sequence, no version is newer than the
// heap's committed sequence, while any view is live the oldest retained
// version of every chain is at or below the trim floor (the minimum base of
// the live views) so no live view's base has been trimmed out from under it,
// no pooled page frame is still reachable from a version chain (a reachable
// frame would be overwritten by the commit that reuses it), every chain with
// versions below its head is on the tail list exactly once, and the cached
// and last-used trim floors are at or below the true floor. Returns a
// descriptive error on the first breach. Used by the invariant checker
// (internal/invariant).
func (h *Heap) Audit() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.viewMu.Lock()
	defer h.viewMu.Unlock()
	top := h.seq.Load()
	floor := h.trimFloorLocked()
	for _, v := range h.views {
		if b := v.base.Load(); b > top {
			return fmt.Errorf("vheap: live view base %d is ahead of the newest commit %d", b, top)
		}
	}
	if h.floorValid.Load() && h.floorCache.Load() > floor {
		return fmt.Errorf("vheap: cached trim floor %d is above the true floor %d — trimming could cut a live view's base",
			h.floorCache.Load(), floor)
	}
	if h.lastFloor > floor {
		return fmt.Errorf("vheap: last trimmed at floor %d, above the true floor %d — trimming could have cut a live view's base",
			h.lastFloor, floor)
	}
	pooled := make(map[*page]bool, len(h.pagePool))
	for i, p := range h.pagePool {
		if p == nil {
			return fmt.Errorf("vheap: page pool entry %d is nil", i)
		}
		if p == h.zero {
			return fmt.Errorf("vheap: the shared zero page was recycled into the page pool — other chains may still reference it")
		}
		if len(p.words) != h.pageWords {
			return fmt.Errorf("vheap: pooled page frame %d has %d words, want the page size %d", i, len(p.words), h.pageWords)
		}
		if p.prev.Load() != nil {
			return fmt.Errorf("vheap: pooled page frame %d still links to a version chain", i)
		}
		pooled[p] = true
	}
	listed := make(map[int]bool, len(h.tails))
	for _, pi := range h.tails {
		if listed[pi] || !h.tailed[pi] {
			return fmt.Errorf("vheap: page %d is on the tail list twice or without its mark", pi)
		}
		listed[pi] = true
	}
	for pi := range h.slots {
		p := h.slots[pi].Load()
		if p.seq > top {
			return fmt.Errorf("vheap: page %d head version %d is ahead of the newest commit %d", pi, p.seq, top)
		}
		if h.tailed[pi] != listed[pi] {
			return fmt.Errorf("vheap: page %d tail mark %v disagrees with the tail list", pi, h.tailed[pi])
		}
		if p.prev.Load() != nil && !listed[pi] {
			return fmt.Errorf("vheap: page %d holds versions below its head but is not on the tail list — no sweep would reclaim them", pi)
		}
		oldest := p.seq
		for q := p; q != nil; q = q.prev.Load() {
			if pooled[q] {
				return fmt.Errorf("vheap: page %d version %d is both pooled and reachable — its frame would be overwritten while live",
					pi, q.seq)
			}
			if q != p && q.seq >= oldest {
				return fmt.Errorf("vheap: page %d version chain is not strictly decreasing (%d then %d)", pi, oldest, q.seq)
			}
			oldest = q.seq
		}
		if len(h.views) > 0 && oldest > floor {
			return fmt.Errorf("vheap: page %d oldest retained version %d is above the trim floor %d — a live view's base was trimmed",
				pi, oldest, floor)
		}
	}
	return nil
}

// dirtyPage is a view's private state for one page it has written. words
// holds a value only where dirty has the word's bit set (one bit per word,
// set by every store); every other word reads from base, the version the view
// resolved at the first write. base is also the diff reference: a view's base
// sequence cannot move while it has a dirty page (Update refuses,
// Commit and Revert empty the dirty set, RevertTo keeps the base), so base is
// exactly the page a twin copy would hold, and commit walks the set bits
// comparing against it instead of re-diffing the whole page.
type dirtyPage struct {
	words []int64
	base  *page
	dirty []uint64
	// force marks words StoreDirty wrote with their base value: they merge
	// although they do not differ from base. A later store keeps the mark.
	force []uint64
	// snapKeep is RevertTo's transient sweep mark: set on frames the
	// snapshot reinstates, cleared again before RevertTo returns.
	snapKeep bool
}

// mark records a write to word off.
func (d *dirtyPage) mark(off int64) { d.dirty[off>>6] |= 1 << (uint(off) & 63) }

// marked reports whether word i has been written.
func (d *dirtyPage) marked(i int) bool { return d.dirty[i>>6]&(1<<(uint(i)&63)) != 0 }

// changed reports whether marked word i is a change to publish: it differs
// from the base version, or StoreDirty forced it.
func (d *dirtyPage) changed(i int) bool {
	return d.words[i] != d.base.words[i] || d.force[i>>6]&(1<<(uint(i)&63)) != 0
}

// newFrame allocates a dirty-page frame sized for the heap's pages.
func (h *Heap) newFrame() *dirtyPage {
	n := (h.pageWords + 63) / 64
	bitmaps := make([]uint64, 2*n)
	return &dirtyPage{
		words: make([]int64, h.pageWords),
		dirty: bitmaps[:n:n],
		force: bitmaps[n:],
	}
}

// View is one thread's isolated window onto the heap. Its page tables are
// dense slices indexed by page number — the software analogue of the flat
// per-thread page tables the paper's threads read and write through — with
// a generation stamp validating clean-resolution entries, so re-basing
// invalidates the whole cache in O(1).
type View struct {
	h    *Heap
	base atomic.Int64 // committed sequence the view reads at

	// dirtyTab[pi] is the private frame of page pi (its written words and
	// base version), nil if the page is clean. dirtyIdx lists the dirty page
	// numbers in first-write order (the deterministic iteration order for
	// commits and snapshots).
	dirtyTab []*dirtyPage
	dirtyIdx []int

	// cleanTab caches pages already resolved at the current base, so reads
	// against a stale base (a speculating thread that has not re-based for
	// a while) do not re-walk version chains. An entry is valid only while
	// cleanGen[pi] == gen; moving the base bumps gen instead of clearing
	// the table. Page versions are immutable and trimming never cuts above
	// a live base, so a cached resolution stays valid until the base moves.
	cleanTab []*page
	cleanGen []uint64
	gen      uint64

	// free is the view's dirty-page frame pool: frames released by
	// Commit/Revert, reused by the next first-write. Thread-local, so hit
	// and miss counts stay deterministic (unlike a sync.Pool's).
	free      []*dirtyPage
	frameHits int64 // flushed into heap totals (and telemetry) at Commit
	frameMiss int64
	closed    bool // Close happened; further Closes are no-ops
	slot      int  // index in h.views while registered; guarded by h.viewMu
}

// NewView creates a view based on the newest committed state.
func (h *Heap) NewView() *View {
	v := &View{
		h:        h,
		dirtyTab: make([]*dirtyPage, h.npages),
		cleanTab: make([]*page, h.npages),
		cleanGen: make([]uint64, h.npages),
		gen:      1, // so zero-valued cleanGen entries are invalid
	}
	h.viewMu.Lock()
	v.base.Store(h.seq.Load())
	v.slot = len(h.views)
	h.views = append(h.views, v)
	h.viewMu.Unlock()
	h.floorValid.Store(false) // view set changed
	return v
}

// Close unregisters the view so its base no longer pins old versions. It is
// idempotent: a second Close is a no-op, so an engine tearing down shared
// thread state twice cannot invalidate the trim-floor cache spuriously or
// unregister a recreated view by aliasing.
func (v *View) Close() {
	v.h.viewMu.Lock()
	unregistered := false
	if !v.closed {
		v.closed = true
		last := len(v.h.views) - 1
		v.h.views[v.slot] = v.h.views[last]
		v.h.views[v.slot].slot = v.slot
		v.h.views[last] = nil
		v.h.views = v.h.views[:last]
		unregistered = true
	}
	v.h.viewMu.Unlock()
	if unregistered {
		v.h.floorValid.Store(false) // view set changed
	}
}

// BaseSeq returns the committed sequence the view is based on.
func (v *View) BaseSeq() int64 { return v.base.Load() }

// DirtyPages returns the number of privately modified pages.
func (v *View) DirtyPages() int { return len(v.dirtyIdx) }

// DirtyWords returns the number of words a commit would publish — the
// "change set size" reported in the paper's Figure 12. Silent stores (marked
// but equal to the base version, and not forced) do not count.
func (v *View) DirtyWords() int {
	n := 0
	for _, pi := range v.dirtyIdx {
		n += diffWords(v.dirtyTab[pi])
	}
	return n
}

// diffWords counts the marked words a commit would publish (an unmarked word
// was never stored to, so it cannot differ).
func diffWords(d *dirtyPage) int {
	n := 0
	for bi, mask := range d.dirty {
		for mask != 0 {
			i := bi<<6 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			if d.changed(i) {
				n++
			}
		}
	}
	return n
}

// AuditDirty verifies the view's dirty tracking: every dirty page must diff
// against the version the view's base resolves to — a frame holding any
// other base would merge the wrong words, and its unwritten words would read
// another version than the view's — and a word may be forced only if it is
// marked. (A marked word equal to its base is a legal silent store.) Must be
// called by the view's owning thread, before Commit clears the dirty set.
// Used by the invariant checker.
func (v *View) AuditDirty() error {
	base := v.base.Load()
	for _, pi := range v.dirtyIdx {
		d := v.dirtyTab[pi]
		if want := v.h.pageAt(pi, base); d.base != want {
			got := int64(-1)
			if d.base != nil {
				got = d.base.seq
			}
			return fmt.Errorf("vheap: page %d dirty frame diffs against version %d, not the view base %d's version %d — the bitmap commit would publish the wrong words",
				pi, got, base, want.seq)
		}
		for bi, f := range d.force {
			if f&^d.dirty[bi] != 0 {
				return fmt.Errorf("vheap: page %d word group %d has forced words that are not marked dirty", pi, bi)
			}
		}
	}
	return nil
}

// AuditTables verifies the flat page tables and frame pool: dirtyIdx and
// dirtyTab must agree exactly (every listed page has a frame, every frame is
// listed once), clean-cache entries stamped with the current generation must
// equal a fresh version-chain resolution at the view's base, and pooled
// frames must be page-sized with cleared bitmaps and no base version, and
// must not alias a live dirty frame. Used by the invariant checker at every
// publication.
func (v *View) AuditTables() error {
	if len(v.dirtyTab) != v.h.npages || len(v.cleanTab) != v.h.npages || len(v.cleanGen) != v.h.npages {
		return fmt.Errorf("vheap: page tables sized %d/%d/%d, want the heap's %d pages",
			len(v.dirtyTab), len(v.cleanTab), len(v.cleanGen), v.h.npages)
	}
	listed := make(map[int]bool, len(v.dirtyIdx))
	live := make(map[*dirtyPage]bool, len(v.dirtyIdx))
	for _, pi := range v.dirtyIdx {
		if pi < 0 || pi >= v.h.npages {
			return fmt.Errorf("vheap: dirty index lists page %d outside the heap's %d pages", pi, v.h.npages)
		}
		if listed[pi] {
			return fmt.Errorf("vheap: dirty index lists page %d twice", pi)
		}
		listed[pi] = true
		d := v.dirtyTab[pi]
		if d == nil {
			return fmt.Errorf("vheap: dirty index lists page %d but its table entry is nil", pi)
		}
		live[d] = true
	}
	dirty := 0
	for pi, d := range v.dirtyTab {
		if d == nil {
			continue
		}
		dirty++
		if !listed[pi] {
			return fmt.Errorf("vheap: page %d has a dirty frame but is missing from the dirty index — commit would drop it", pi)
		}
	}
	if dirty != len(v.dirtyIdx) {
		return fmt.Errorf("vheap: %d dirty frames but %d dirty index entries", dirty, len(v.dirtyIdx))
	}
	base := v.base.Load()
	for pi, g := range v.cleanGen {
		if g > v.gen {
			return fmt.Errorf("vheap: page %d clean stamp %d is ahead of the view generation %d", pi, g, v.gen)
		}
		if g != v.gen {
			continue
		}
		p := v.cleanTab[pi]
		if p == nil {
			return fmt.Errorf("vheap: page %d clean stamp is current but the cached resolution is nil", pi)
		}
		if p != v.h.pageAt(pi, base) {
			return fmt.Errorf("vheap: page %d cached clean resolution (seq %d) is stale for base %d — generation stamping failed to invalidate it",
				pi, p.seq, base)
		}
	}
	for i, d := range v.free {
		if d == nil {
			return fmt.Errorf("vheap: frame pool entry %d is nil", i)
		}
		if live[d] {
			return fmt.Errorf("vheap: frame pool entry %d aliases a live dirty frame — its contents would be overwritten under the view", i)
		}
		if n := (v.h.pageWords + 63) / 64; len(d.words) != v.h.pageWords || len(d.dirty) != n || len(d.force) != n {
			return fmt.Errorf("vheap: frame pool entry %d sized %d/%d/%d, want %d-word pages",
				i, len(d.words), len(d.dirty), len(d.force), v.h.pageWords)
		}
		for bi := range d.dirty {
			if d.dirty[bi] != 0 || d.force[bi] != 0 {
				return fmt.Errorf("vheap: frame pool entry %d has residual dirty or forced bits (word group %d) — a recycled frame must start clean", i, bi)
			}
		}
		if d.base != nil {
			return fmt.Errorf("vheap: frame pool entry %d still holds base version %d — a recycled frame must start clean", i, d.base.seq)
		}
	}
	return nil
}

// frame takes a dirty-page frame from the view's free list, or allocates
// one. Recycled frames have cleared bitmaps and no base (releaseFrame's
// contract); their words are stale, and each is written before its bit is
// set.
func (v *View) frame() *dirtyPage {
	if n := len(v.free); n > 0 {
		d := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		v.frameHits++
		return d
	}
	v.frameMiss++
	return v.h.newFrame()
}

// releaseFrame returns a frame to the free list with its bitmaps cleared and
// its base dropped.
func (v *View) releaseFrame(d *dirtyPage) {
	clear(d.dirty)
	clear(d.force)
	d.base = nil
	v.free = append(v.free, d)
}

// clearDirty recycles every dirty frame and empties the dirty index.
func (v *View) clearDirty() {
	for _, pi := range v.dirtyIdx {
		v.releaseFrame(v.dirtyTab[pi])
		v.dirtyTab[pi] = nil
	}
	v.dirtyIdx = v.dirtyIdx[:0]
}

// invalidateClean discards every cached clean resolution in O(1) by bumping
// the generation stamp.
func (v *View) invalidateClean() { v.gen++ }

// resolve returns the committed page for pi at the view's base, caching the
// resolution under the current generation.
func (v *View) resolve(pi int) *page {
	if v.cleanGen[pi] == v.gen {
		return v.cleanTab[pi]
	}
	p := v.h.pageAt(pi, v.base.Load())
	v.cleanTab[pi] = p
	v.cleanGen[pi] = v.gen
	return p
}

// Load reads addr through the view: the private value if the view stored to
// the word, otherwise the newest committed version no newer than the base
// (for a dirty page, the base version its frame holds).
func (v *View) Load(addr int64) int64 {
	pi := int(addr >> v.h.pageShift)
	off := addr & v.h.pageMask
	if d := v.dirtyTab[pi]; d != nil {
		if d.marked(int(off)) {
			return d.words[off]
		}
		return d.base.words[off]
	}
	return v.resolve(pi).words[off]
}

// Store writes addr privately and marks the word. The first write to a page
// takes a frame from the view's free list and records the page's base
// version in it; nothing is copied.
func (v *View) Store(addr, val int64) {
	pi := int(addr >> v.h.pageShift)
	off := addr & v.h.pageMask
	d := v.dirtyTab[pi]
	if d == nil {
		d = v.frame()
		d.base = v.resolve(pi)
		v.dirtyTab[pi] = d
		v.dirtyIdx = append(v.dirtyIdx, pi)
	}
	d.words[off] = val
	d.mark(off)
}

// StoreDirty writes addr like Store, but guarantees the word is treated as
// modified at commit even when the stored value equals the base version's.
// Needed when the value was computed against state newer than the view's
// base (irrevocable atomics), where a "silent" store must still win the
// merge. The word stays forced through later stores until the dirty set is
// published or discarded.
func (v *View) StoreDirty(addr, val int64) {
	v.Store(addr, val)
	d := v.dirtyTab[addr>>v.h.pageShift]
	off := addr & v.h.pageMask
	if d.base.words[off] == val {
		d.force[off>>6] |= 1 << (uint(off) & 63)
	}
}

// newPageLocked takes a published-page frame from the pool (refilled by
// chain trimming) or allocates one, counting the outcome into hits/misses.
// Caller holds h.mu; the returned frame's words are overwritten by the
// caller before publication.
func (h *Heap) newPageLocked(seq int64, hits, misses *int64) *page {
	if n := len(h.pagePool); n > 0 {
		p := h.pagePool[n-1] // prev is already nil: trimming unlinked it
		h.pagePool[n-1] = nil
		h.pagePool = h.pagePool[:n-1]
		p.seq = seq
		*hits++
		return p
	}
	*misses++
	return &page{seq: seq, words: make([]int64, h.pageWords)}
}

// commitPage merges one dirty page onto its head version and publishes the
// result, returning the number of merged words (0 means every store was
// silent and nothing was published). The page's chain is then trimmed at
// floor, and queued on the tail list if versions below the new head remain.
// Caller holds h.mu.
func (h *Heap) commitPage(pi int, d *dirtyPage, newSeq, floor int64, scanned, pageHits, pageMisses *int64) int {
	head := h.slots[pi].Load()
	var merged *page
	n := 0
	for bi, mask := range d.dirty {
		for mask != 0 {
			i := bi<<6 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			*scanned++
			if d.changed(i) {
				if merged == nil {
					merged = h.newPageLocked(newSeq, pageHits, pageMisses)
					copy(merged.words, head.words)
				}
				merged.words[i] = d.words[i]
				n++
			}
		}
	}
	if merged == nil {
		return 0 // page dirtied but all stores were silent
	}
	merged.prev.Store(head)
	h.slots[pi].Store(merged)
	h.trimChainLocked(merged, floor)
	if merged.prev.Load() != nil && !h.tailed[pi] {
		h.tailed[pi] = true
		h.tails = append(h.tails, pi)
	}
	return n
}

// sweepTailsLocked trims every chain on the tail list at floor and drops
// from the list each page whose head is now its only version. It runs when
// the floor has moved since the last sweep and at least as many pages have
// been committed since then as the list holds, so its cost is O(1)
// amortized per committed page. Caller holds h.mu, at the turn: sweeps run
// in commit order.
func (h *Heap) sweepTailsLocked(floor int64) {
	if floor <= h.sweptFloor || h.sinceSweep < int64(len(h.tails)) {
		return
	}
	kept := h.tails[:0]
	for _, pi := range h.tails {
		head := h.slots[pi].Load()
		h.trimChainLocked(head, floor)
		if head.prev.Load() != nil {
			kept = append(kept, pi)
		} else {
			h.tailed[pi] = false
		}
	}
	h.tails = kept
	h.sweptFloor = floor
	h.sinceSweep = 0
}

// Commit publishes the view's modifications: for every dirty page, the marked
// words that differ from the base version (or were forced) are merged onto
// the current head version, and a new page version is linked in. Only the
// bitmap's marked words are examined. The view is re-based on the new
// committed state and its dirty set cleared — the frames are recycled, and
// trimmed-off page versions refill the published-page pool. Returns the new
// sequence number and the number of words merged.
//
// The tail list is swept first (sweepTailsLocked), so the versions it frees
// serve this commit's pages. Every page is merged and trimmed, and the commit
// counted into the heap's stats, under one acquisition of h.mu. The committed
// sequence is advanced only after every page is published, so a view
// registering concurrently still bases on a fully published state.
//
// Callers must serialize commits deterministically (all engines here commit
// while holding the turn); the mutex only protects the data structures.
func (v *View) Commit() (seq int64, changed int) {
	h := v.h
	oldBase := v.base.Load()
	newSeq := h.seq.Load() + 1
	scanned := int64(0)
	pages := int64(0)
	var pageHits, pageMisses int64
	frameHits, frameMiss := v.frameHits, v.frameMiss
	v.frameHits, v.frameMiss = 0, 0
	h.mu.Lock()
	floor := h.cachedFloor()
	h.sweepTailsLocked(floor)
	for _, pi := range v.dirtyIdx {
		if n := h.commitPage(pi, v.dirtyTab[pi], newSeq, floor, &scanned, &pageHits, &pageMisses); n > 0 {
			pages++
			changed += n
		}
	}
	h.sinceSweep += pages
	st := &h.stats
	st.Commits++
	st.Pages += pages
	st.Words += int64(changed)
	st.WordsScanned += scanned
	st.FrameHits += frameHits
	st.FrameMisses += frameMiss
	st.PageHits += pageHits
	st.PageMisses += pageMisses
	h.mu.Unlock()
	h.seq.Store(newSeq)
	h.countCommit(pages, int64(changed), scanned, frameHits, frameMiss, pageHits, pageMisses)
	v.base.Store(newSeq)
	h.noteRebase(oldBase)
	v.clearDirty()
	v.invalidateClean()
	return newSeq, changed
}

// countCommit publishes one commit into telemetry. A pool counter that never
// fired stays out of the snapshot.
func (h *Heap) countCommit(pages, changed, scanned, frameHits, frameMiss, pageHits, pageMisses int64) {
	if h.tel == nil {
		return
	}
	h.ctr.commits.Add(1)
	h.ctr.pages.Add(pages)
	h.ctr.words.Add(changed)
	h.ctr.scanned.Add(scanned)
	h.tel.Observe("vheap.commit_words", changed)
	if frameHits != 0 {
		h.ctr.frameHits.Add(frameHits)
	}
	if frameMiss != 0 {
		h.ctr.frameMisses.Add(frameMiss)
	}
	if pageHits != 0 {
		h.ctr.pageHits.Add(pageHits)
	}
	if pageMisses != 0 {
		h.ctr.pageMisses.Add(pageMisses)
	}
}

// trimChainLocked cuts the version chain below the newest version whose seq
// is <= floor: no live view can need anything older. Readers concurrently
// walking the chain hold bases >= floor, so they never traverse past the new
// terminal node — which is what makes the cut-off tail unreachable and its
// frames safe to recycle into the page pool (the shared zero page excepted:
// it can sit in many chains at once). It runs on the chain a commit just
// published to and, from sweepTailsLocked, on every chain the tail list
// holds. The floor is recorded as lastFloor for the monotonicity audit.
// Caller holds h.mu.
func (h *Heap) trimChainLocked(head *page, floor int64) {
	h.lastFloor = floor
	p := head
	for p.seq > floor {
		prev := p.prev.Load()
		if prev == nil {
			return
		}
		p = prev
	}
	// p is the newest version <= floor; it becomes the terminal node, and
	// everything below it is unreachable from this chain.
	tail := p.prev.Load()
	if tail == nil {
		return
	}
	p.prev.Store(nil)
	for q := tail; q != nil; {
		next := q.prev.Load()
		q.prev.Store(nil)
		if q != h.zero {
			h.pagePool = append(h.pagePool, q)
		}
		q = next
	}
}

// Update re-bases the view on the newest committed state. The dirty set must
// be empty (engines always commit or revert before updating).
func (v *View) Update() {
	if v.DirtyPages() != 0 {
		panic("vheap: Update with non-empty dirty set")
	}
	oldBase := v.base.Load()
	v.base.Store(v.h.seq.Load())
	v.h.noteRebase(oldBase)
	v.invalidateClean()
}

// Revert discards all private modifications and re-bases the view on the
// newest committed state, as LazyDet does when a speculation run fails.
// It returns the number of discarded (non-silent) dirty words.
func (v *View) Revert() (discarded int) {
	discarded = v.DirtyWords()
	oldBase := v.base.Load()
	v.base.Store(v.h.seq.Load())
	v.h.noteRebase(oldBase)
	v.clearDirty()
	v.invalidateClean()
	return discarded
}

// DirtySnapshot is a copy of a view's private modifications, taken when
// a speculation run begins so that a revert can restore the thread's
// pre-speculation writes (which were made before the run and must survive
// its failure). Snapshots are reusable: SnapshotDirtyInto recycles the
// snapshot's frames across speculation runs, so steady-state BEGINs
// allocate nothing.
type DirtySnapshot struct {
	pis   []int
	pages []*dirtyPage // copies (marked words, bitmaps, base), parallel to pis
	spare []*dirtyPage // retained frames not used by the current contents
	words int
}

// Words returns the number of non-silent dirty words in the snapshot.
func (s *DirtySnapshot) Words() int { return s.words }

// frame takes a snapshot-owned frame from the spare list or allocates one.
func (s *DirtySnapshot) frame(h *Heap) *dirtyPage {
	if n := len(s.spare); n > 0 {
		d := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return d
	}
	return h.newFrame()
}

// copyInto copies src's state over dst: the base pointer, both bitmaps and
// the marked words. Per 64-word group it copies the span from the lowest to
// the highest marked word; the unmarked words inside the span carry stale
// values nobody reads.
func copyInto(dst, src *dirtyPage) {
	dst.base = src.base
	copy(dst.dirty, src.dirty)
	copy(dst.force, src.force)
	for bi, mask := range src.dirty {
		if mask != 0 {
			lo := bi<<6 + bits.TrailingZeros64(mask)
			hi := bi<<6 + 64 - bits.LeadingZeros64(mask)
			copy(dst.words[lo:hi], src.words[lo:hi])
		}
	}
}

// SnapshotDirty copies the view's dirty set into a fresh snapshot.
func (v *View) SnapshotDirty() *DirtySnapshot { return v.SnapshotDirtyInto(nil) }

// SnapshotDirtyInto copies the view's dirty set into s, reusing its
// page frames and slices; a nil s allocates a fresh snapshot. The returned
// snapshot is s (or the fresh one). Frames the previous contents used but
// the new contents do not are retained on the snapshot's spare list, so
// alternating between large and small dirty sets still reaches a
// steady state with no allocation.
func (v *View) SnapshotDirtyInto(s *DirtySnapshot) *DirtySnapshot {
	if s == nil {
		s = new(DirtySnapshot)
	}
	s.spare = append(s.spare, s.pages...)
	for i := range s.pages {
		s.pages[i] = nil
	}
	s.pages = s.pages[:0]
	s.pis = s.pis[:0]
	s.words = 0
	for _, pi := range v.dirtyIdx {
		d := v.dirtyTab[pi]
		dst := s.frame(v.h)
		copyInto(dst, d)
		s.pis = append(s.pis, pi)
		s.pages = append(s.pages, dst)
		s.words += diffWords(d)
	}
	return s
}

// RevertTo discards the run's modifications and reinstates the dirty set
// captured at the run's begin. The view keeps its base (it never advanced
// during the run), so after RevertTo the view is exactly as it was when the
// snapshot was taken. Returns the number of discarded speculative words
// (the run's change set, net of the preserved pre-run writes).
func (v *View) RevertTo(s *DirtySnapshot) (discarded int) {
	discarded = v.DirtyWords() - s.words
	if discarded < 0 {
		discarded = 0
	}
	// Snapshotted pages reinstate into the frame already holding the page
	// (no publication happened during the run, so a snapshotted page's frame
	// is still live); frames for pages the run dirtied after the snapshot are
	// released. The snapKeep mark makes the sweep linear.
	for i, pi := range s.pis {
		d := v.dirtyTab[pi]
		copyInto(d, s.pages[i])
		d.snapKeep = true
	}
	n := 0
	for _, pi := range v.dirtyIdx {
		d := v.dirtyTab[pi]
		if d.snapKeep {
			d.snapKeep = false
			v.dirtyIdx[n] = pi
			n++
			continue
		}
		v.releaseFrame(d)
		v.dirtyTab[pi] = nil
	}
	v.dirtyIdx = v.dirtyIdx[:n]
	return discarded
}
