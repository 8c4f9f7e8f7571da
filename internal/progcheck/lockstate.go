package progcheck

import (
	"fmt"
	"sort"
	"strings"

	"lazydet/internal/dvm"
)

// lockMode is the abstract acquisition mode of a held lock.
type lockMode uint8

const (
	modeWrite lockMode = iota
	modeRead
)

func (m lockMode) String() string {
	if m == modeRead {
		return "read"
	}
	return "write"
}

// heldLock is one entry of an abstract lockset.
type heldLock struct {
	id   int64
	mode lockMode
}

// phaseCap saturates the barrier-phase counter: phases at the cap are
// indistinguishable, which only ever widens the race-overlap check (more
// candidates, never a wrong suppression).
const phaseCap = 8

// maxStatesPerPC bounds the abstract states tracked per program point.
// Programs that exceed it (deeply path-sensitive lock usage) lose states —
// and hence possibly findings — but never gain spurious ones.
const maxStatesPerPC = 64

// absState is one abstract synchronization state: the ordered set of held
// locks, the saturating barrier-phase counter, and a taint bit set when a
// sync operation on a statically unknown object has made the lockset
// unreliable. Tainted states flow on (so reachability stays right) but
// produce no findings.
type absState struct {
	held    []heldLock // sorted by (id, mode)
	phase   uint8
	tainted bool
}

func (s absState) key() string {
	var b strings.Builder
	for _, h := range s.held {
		fmt.Fprintf(&b, "%d/%d;", h.id, h.mode)
	}
	fmt.Fprintf(&b, "|p%d|t%v", s.phase, s.tainted)
	return b.String()
}

func (s absState) clone() absState {
	ns := s
	ns.held = append([]heldLock(nil), s.held...)
	return ns
}

func (s absState) find(id int64) (lockMode, bool) {
	for _, h := range s.held {
		if h.id == id {
			return h.mode, true
		}
	}
	return modeWrite, false
}

func (s *absState) add(id int64, mode lockMode) {
	s.held = append(s.held, heldLock{id, mode})
	sort.Slice(s.held, func(i, j int) bool {
		if s.held[i].id != s.held[j].id {
			return s.held[i].id < s.held[j].id
		}
		return s.held[i].mode < s.held[j].mode
	})
}

func (s *absState) remove(id int64) {
	for i, h := range s.held {
		if h.id == id {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

func (s absState) heldIDs() []int64 {
	ids := make([]int64, len(s.held))
	for i, h := range s.held {
		ids[i] = h.id
	}
	return ids
}

// lockEdge is one lock-order fact: while holding `from` (and everything in
// `guards`), the program acquires `to` at instruction pc.
type lockEdge struct {
	from, to int64
	pc       int
	// guards is the sorted full set of lock IDs held at the acquisition,
	// including from; a lock common to every edge of a cycle is a gate
	// that serializes the cycle and makes the deadlock infeasible.
	guards []int64
}

// accessKind classifies a memory access for the race analysis.
type accessKind uint8

const (
	accRead accessKind = iota
	accWrite
	accAtomic // read-modify-write, but engine-serialized: atomic vs atomic never races
)

func (k accessKind) String() string {
	switch k {
	case accRead:
		return "read"
	case accWrite:
		return "write"
	}
	return "atomic"
}

// access accumulates, per instruction, the abstract contexts a memory
// access executes under: every untainted lockset reached and every barrier
// phase. The race analysis works on these summaries.
type access struct {
	pc   int
	kind accessKind
	addr dvm.SVal
	// locksets are the distinct untainted locksets observed, keyed for dedup.
	locksets map[string][]heldLock
	phases   map[uint8]bool
}

// progSummary is the per-program analysis result feeding the cross-program
// deadlock and race passes.
type progSummary struct {
	prog    *dvm.Program
	threads []int // thread IDs running this program, ascending

	findings       []Finding
	statesExplored int
	unknownSyncOps int

	edges    []lockEdge
	accesses map[int]*access

	// Footprint analysis inputs (footprint.go). Unlike the race pass,
	// which drops tainted states because they would only manufacture
	// false positives, the footprint pass must OVER-approximate each
	// lock's footprint — a missed access could wrongly prove a lock
	// Disjoint — so tainted states contribute here too (their stale held
	// entries only enlarge footprints).
	fp          map[int64]map[int]*fpRecord // per held lock, per pc: accesses under it
	fpDemote    map[int64]string            // locks capped at Unknown, with the first reason
	lockClasses map[int64]map[string]bool   // address classes declared at each lock's sync sites ("" = an unclassed site)
	dynLockSeen map[string]bool             // classes of dynamic lock operands ("" = a classless one)
	fpTruncated bool                        // state exploration hit maxStatesPerPC: footprints incomplete
}

// site builds the finding site for this program at pc.
func (ps *progSummary) site(pc int, detail string) Site {
	return Site{Thread: ps.threads[0], Prog: ps.prog.Name, PC: pc, Detail: detail}
}

// analyzeProgram runs the forward abstract interpretation of one program and
// returns its summary. threads lists the thread IDs running the program.
func analyzeProgram(p *dvm.Program, threads []int) *progSummary {
	ps := &progSummary{
		prog: p, threads: threads, accesses: map[int]*access{},
		fp:          map[int64]map[int]*fpRecord{},
		fpDemote:    map[int64]string{},
		lockClasses: map[int64]map[string]bool{},
		dynLockSeen: map[string]bool{},
	}
	if len(p.Code) == 0 {
		return ps
	}

	// seen[pc] holds the state keys already queued at pc; dedup keeps the
	// fixpoint finite, maxStatesPerPC keeps it small.
	seen := make([]map[string]bool, len(p.Code))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	type work struct {
		pc int
		st absState
	}
	var list []work
	push := func(pc int, st absState) {
		if pc >= len(p.Code) {
			// Validate rejects fall-off-the-end paths; tolerate them here
			// so the analyzer never panics on unvalidated input.
			return
		}
		k := st.key()
		if seen[pc][k] {
			return
		}
		if len(seen[pc]) >= maxStatesPerPC {
			// Dropped states may hide accesses: the footprint pass must
			// not claim Disjoint from an incomplete exploration.
			ps.fpTruncated = true
			return
		}
		seen[pc][k] = true
		list = append(list, work{pc, st})
	}
	// reported dedups findings across the many states reaching one pc.
	reported := map[string]bool{}
	report := func(key string, f Finding) {
		if reported[key] {
			return
		}
		reported[key] = true
		ps.findings = append(ps.findings, f)
	}
	edgeSeen := map[string]bool{}

	push(0, absState{})
	for len(list) > 0 {
		w := list[0]
		list = list[1:]
		ps.statesExplored++
		st := w.st.clone()
		in := &p.Code[w.pc]

		switch in.Op {
		case dvm.OpLock:
			if !in.SAddr.Known {
				ps.unknownSyncOps++
				ps.noteDynLockOperand(in.SAddr)
				st.tainted = true
				break
			}
			id := in.SAddr.K
			ps.noteLockClass(id, in.SAddr.Class)
			mode, held := st.find(id)
			switch {
			case st.tainted:
				// Lockset unreliable: no verdicts, keep the acquisition so
				// later unlocks match up.
				if !held {
					st.add(id, modeWrite)
				}
			case held && mode == modeWrite:
				report(fmt.Sprintf("dl/%d", w.pc), Finding{
					Class: ClassDoubleLock, Severity: SevError,
					Message: fmt.Sprintf("lock %d acquired while already held", id),
					Sites:   []Site{ps.site(w.pc, "second acquisition")},
				})
			case held && mode == modeRead:
				report(fmt.Sprintf("rw-up/%d", w.pc), Finding{
					Class: ClassRWConfusion, Severity: SevError,
					Message: fmt.Sprintf("write-lock of lock %d while holding it in read mode", id),
					Sites:   []Site{ps.site(w.pc, "upgrade attempt")},
				})
			default:
				ps.recordOrderEdges(edgeSeen, &st, id, w.pc)
				st.add(id, modeWrite)
			}

		case dvm.OpRLock:
			if !in.SAddr.Known {
				ps.unknownSyncOps++
				ps.noteDynLockOperand(in.SAddr)
				st.tainted = true
				break
			}
			id := in.SAddr.K
			ps.noteLockClass(id, in.SAddr.Class)
			mode, held := st.find(id)
			switch {
			case st.tainted:
				if !held {
					st.add(id, modeRead)
				}
			case held && mode == modeWrite:
				report(fmt.Sprintf("rw-down/%d", w.pc), Finding{
					Class: ClassRWConfusion, Severity: SevError,
					Message: fmt.Sprintf("read-lock of lock %d while holding it in write mode", id),
					Sites:   []Site{ps.site(w.pc, "re-entrant read of write-held lock")},
				})
			case held && mode == modeRead:
				// Recursive read acquisition is legal; the abstraction keeps
				// a single entry (release counts are not tracked).
			default:
				ps.recordOrderEdges(edgeSeen, &st, id, w.pc)
				st.add(id, modeRead)
			}

		case dvm.OpUnlock:
			if !in.SAddr.Known {
				ps.unknownSyncOps++
				ps.noteDynLockOperand(in.SAddr)
				st.tainted = true
				break
			}
			id := in.SAddr.K
			ps.noteLockClass(id, in.SAddr.Class)
			mode, held := st.find(id)
			switch {
			case st.tainted:
				st.remove(id)
			case held && mode == modeWrite:
				st.remove(id)
			case held && mode == modeRead:
				report(fmt.Sprintf("rw-unl/%d", w.pc), Finding{
					Class: ClassRWConfusion, Severity: SevError,
					Message: fmt.Sprintf("write-unlock of lock %d held in read mode", id),
					Sites:   []Site{ps.site(w.pc, "mismatched release")},
				})
				st.remove(id) // assume the release was intended
			default:
				report(fmt.Sprintf("unl/%d", w.pc), Finding{
					Class: ClassUnlockWithoutLock, Severity: SevError,
					Message: fmt.Sprintf("unlock of lock %d which is not held", id),
					Sites:   []Site{ps.site(w.pc, "release without acquisition")},
				})
			}

		case dvm.OpRUnlock:
			if !in.SAddr.Known {
				ps.unknownSyncOps++
				ps.noteDynLockOperand(in.SAddr)
				st.tainted = true
				break
			}
			id := in.SAddr.K
			ps.noteLockClass(id, in.SAddr.Class)
			mode, held := st.find(id)
			switch {
			case st.tainted:
				st.remove(id)
			case held && mode == modeRead:
				st.remove(id)
			case held && mode == modeWrite:
				report(fmt.Sprintf("rw-runl/%d", w.pc), Finding{
					Class: ClassRWConfusion, Severity: SevError,
					Message: fmt.Sprintf("read-unlock of lock %d held in write mode", id),
					Sites:   []Site{ps.site(w.pc, "mismatched release")},
				})
				st.remove(id)
			default:
				report(fmt.Sprintf("runl/%d", w.pc), Finding{
					Class: ClassUnlockWithoutLock, Severity: SevError,
					Message: fmt.Sprintf("read-unlock of lock %d which is not held", id),
					Sites:   []Site{ps.site(w.pc, "release without acquisition")},
				})
			}

		case dvm.OpCondWait:
			// A run terminating at a condition-variable operation commits
			// with its critical-section locks still held, converting them
			// to conventional ownership — a conversion the Disjoint
			// validation skip must never race (DESIGN.md §5e) — so every
			// lock held here is capped at Unknown.
			ps.demoteHeld(st, w.pc, "held across cond-wait")
			if !in.SAddr2.Known {
				ps.unknownSyncOps++
				ps.noteDynLockOperand(in.SAddr2)
				st.tainted = true
				break
			}
			id := in.SAddr2.K
			ps.noteLockClass(id, in.SAddr2.Class)
			mode, held := st.find(id)
			if !st.tainted && (!held || mode != modeWrite) {
				report(fmt.Sprintf("cw/%d", w.pc), Finding{
					Class: ClassCondWaitNoMutex, Severity: SevError,
					Message: fmt.Sprintf("cond-wait requires mutex %d held in write mode", id),
					Sites:   []Site{ps.site(w.pc, "wait without its mutex")},
				})
			}
			// The wait releases and reacquires the mutex: the lockset is
			// unchanged afterwards, but arbitrary interleavings happened.

		case dvm.OpCondSignal, dvm.OpCondBroadcast:
			// Signal/broadcast terminate a speculation run mid-critical
			// section; see the OpCondWait demotion rationale.
			ps.demoteHeld(st, w.pc, "held across cond-signal/broadcast")
			if !in.SAddr.Known {
				ps.unknownSyncOps++
			}

		case dvm.OpBarrier:
			ps.demoteHeld(st, w.pc, "held across barrier")
			if in.SAddr.Known {
				if st.phase < phaseCap {
					st.phase++
				}
			} else {
				// Unknown barrier: leave the phase alone, so the race pass
				// still treats accesses around it as overlapping.
				ps.unknownSyncOps++
			}

		case dvm.OpLoad:
			ps.recordAccess(w.pc, accRead, in.SAddr, st)
			ps.recordFootprint(w.pc, accRead, in, st)
		case dvm.OpStore:
			ps.recordAccess(w.pc, accWrite, in.SAddr, st)
			ps.recordFootprint(w.pc, accWrite, in, st)
		case dvm.OpAtomic:
			ps.recordAccess(w.pc, accAtomic, in.SAddr, st)
			ps.recordFootprint(w.pc, accAtomic, in, st)

		case dvm.OpHalt:
			ps.demoteHeld(st, w.pc, "held at thread exit")
			if !st.tainted && len(st.held) > 0 {
				ids := st.heldIDs()
				strs := make([]string, len(ids))
				for i, id := range ids {
					strs[i] = fmt.Sprintf("%d", id)
				}
				report(fmt.Sprintf("exit/%d/%s", w.pc, strings.Join(strs, ",")), Finding{
					Class: ClassHeldAtExit, Severity: SevError,
					Message: fmt.Sprintf("thread halts still holding lock(s) %s", strings.Join(strs, ", ")),
					Sites:   []Site{ps.site(w.pc, "halt with live acquisitions")},
				})
			}
		}

		for _, succ := range ps.successors(w.pc) {
			push(succ, st)
		}
	}
	return ps
}

// successors mirrors Program.successors but stays total on unvalidated input.
func (ps *progSummary) successors(pc int) []int {
	in := &ps.prog.Code[pc]
	switch in.Op {
	case dvm.OpHalt:
		return nil
	case dvm.OpJump:
		return []int{in.Target}
	case dvm.OpBranchUnless:
		if in.Target == pc+1 {
			return []int{pc + 1}
		}
		return []int{pc + 1, in.Target}
	default:
		return []int{pc + 1}
	}
}

// recordOrderEdges adds a lock-order edge from every currently held lock to
// the one being acquired, carrying the full held set as the guard set.
func (ps *progSummary) recordOrderEdges(seen map[string]bool, st *absState, to int64, pc int) {
	if len(st.held) == 0 {
		return
	}
	guards := st.heldIDs()
	gkey := fmt.Sprint(guards)
	for _, h := range st.held {
		key := fmt.Sprintf("%d>%d@%d|%s", h.id, to, pc, gkey)
		if seen[key] {
			continue
		}
		seen[key] = true
		ps.edges = append(ps.edges, lockEdge{from: h.id, to: to, pc: pc, guards: guards})
	}
}

// recordAccess folds one abstract execution of a memory access into the
// per-pc summary. Tainted states contribute nothing: their locksets are
// unreliable and would only manufacture false candidates.
func (ps *progSummary) recordAccess(pc int, kind accessKind, addr dvm.SVal, st absState) {
	if st.tainted {
		return
	}
	if !addr.Known && addr.Class == "" {
		return // unknown address: no static aliasing facts, nothing to check
	}
	a := ps.accesses[pc]
	if a == nil {
		a = &access{pc: pc, kind: kind, addr: addr,
			locksets: map[string][]heldLock{}, phases: map[uint8]bool{}}
		ps.accesses[pc] = a
	}
	key := ""
	for _, h := range st.held {
		key += fmt.Sprintf("%d/%d;", h.id, h.mode)
	}
	if _, ok := a.locksets[key]; !ok {
		a.locksets[key] = append([]heldLock(nil), st.held...)
	}
	a.phases[st.phase] = true
}
