// Critical-section footprint analysis: the fourth progcheck pass.
//
// For every statically known lock, the pass collects the read/write
// footprint of each access executed while the lock is held — over known
// constant addresses and InClass address classes — and classifies the lock
// by comparing footprints across every pair of critical sections that could
// run on different threads:
//
//   - Disjoint: all guarded footprints are provably non-overlapping (or
//     overlap only in reads). Speculation through the lock can never fail
//     validation, so the runtime always speculates and skips the lock's
//     conflict checks (core.HintDisjoint, DESIGN.md §5e).
//   - Conflicting: two sections provably overlap through a non-commuting
//     access pair on the same constant address. Speculation is wasted work;
//     the runtime starts the lock conventional.
//   - Unknown: the footprint is unreliable — an unknown operand inside a
//     critical section, a dynamic lock operand that may alias this lock, a
//     mid-section commit hazard, class-level may-aliasing, or a truncated
//     state exploration — or the sections overlap only through commuting
//     operations (atomic adds, identical constant stores on the same
//     address), which is neither a reason to start conventional nor a proof
//     that validation cannot fail. The runtime's adaptive policy decides
//     alone.
//
// Unlike the race pass, which may drop facts (missed findings are
// acceptable there), this pass must over-approximate: a missed access could
// wrongly prove a lock Disjoint and make the engine skip a validation check
// it needed. Every approximation in the collection therefore errs toward
// larger footprints and toward demotion.
package progcheck

import (
	"fmt"
	"sort"
	"strings"

	"lazydet/internal/dvm"
)

// SpecVerdict classifies one lock's cross-section conflict behavior.
type SpecVerdict uint8

const (
	// VerdictUnknown is the sound default: no static fact, defer to the
	// runtime's adaptive policy. It is deliberately the zero value, so a
	// lock missing from a verdict table reads as Unknown.
	VerdictUnknown SpecVerdict = iota
	VerdictDisjoint
	VerdictConflicting
)

func (v SpecVerdict) String() string {
	switch v {
	case VerdictDisjoint:
		return "disjoint"
	case VerdictConflicting:
		return "conflicting"
	default:
		return "unknown"
	}
}

// MarshalText makes verdicts render as their names in JSON output.
func (v SpecVerdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText accepts the String form back (vet golden round-trips).
func (v *SpecVerdict) UnmarshalText(b []byte) error {
	switch string(b) {
	case "disjoint":
		*v = VerdictDisjoint
	case "conflicting":
		*v = VerdictConflicting
	case "unknown":
		*v = VerdictUnknown
	default:
		return fmt.Errorf("progcheck: unknown spec verdict %q", b)
	}
	return nil
}

// SpecHints is the footprint analysis result: one verdict per statically
// known lock, with a deterministic one-line witness per lock. The harness
// lowers it into core.Config.Hints to seed the speculation policy.
type SpecHints struct {
	Verdicts map[int64]SpecVerdict `json:"verdicts"`
	Reasons  map[int64]string      `json:"reasons,omitempty"`
}

// Locks returns the classified lock IDs in ascending order.
func (h *SpecHints) Locks() []int64 {
	if h == nil {
		return nil
	}
	ids := make([]int64, 0, len(h.Verdicts))
	for l := range h.Verdicts {
		ids = append(ids, l)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Count returns how many locks carry verdict v.
func (h *SpecHints) Count(v SpecVerdict) int {
	if h == nil {
		return 0
	}
	n := 0
	for _, got := range h.Verdicts {
		if got == v {
			n++
		}
	}
	return n
}

// Human renders the hints section of Report.Human: a count line plus one
// line per lock, ascending. Empty string when no lock was classified.
func (h *SpecHints) Human() string {
	if h == nil || len(h.Verdicts) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "speculation hints: %d disjoint, %d conflicting, %d unknown\n",
		h.Count(VerdictDisjoint), h.Count(VerdictConflicting), h.Count(VerdictUnknown))
	for _, l := range h.Locks() {
		fmt.Fprintf(&b, "  lock %d: %s", l, h.Verdicts[l])
		if r := h.Reasons[l]; r != "" {
			fmt.Fprintf(&b, " — %s", r)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fpRecord is one distinct access inside some critical section: the pc's
// kind, static address, and — for the commutativity check — the static
// store value or atomic kind.
type fpRecord struct {
	kind accessKind
	addr dvm.SVal
	val  dvm.SVal // OpStore only: the stored value
	atom dvm.AtomicKind
}

// noteLockClass records the address class a statically known lock's sync
// site declared ("" for an unclassed site). The class set feeds the
// dynamic-operand may-alias demotion, and registering the lock at all is
// what gives never-accessed locks a (Disjoint) verdict.
func (ps *progSummary) noteLockClass(id int64, class string) {
	m := ps.lockClasses[id]
	if m == nil {
		m = map[string]bool{}
		ps.lockClasses[id] = m
	}
	m[class] = true
}

// noteDynLockOperand records a lock/cond-mutex operand the builder could
// not resolve to a constant. Its class ("" when unclassed) decides which
// known locks it may alias; a classless dynamic operand may alias any lock.
func (ps *progSummary) noteDynLockOperand(op dvm.SVal) {
	ps.dynLockSeen[op.Class] = true
}

// demoteLock caps a lock's verdict at Unknown, keeping the first reason.
func (ps *progSummary) demoteLock(id int64, reason string) {
	if _, ok := ps.fpDemote[id]; !ok {
		ps.fpDemote[id] = reason
	}
}

// demoteHeld demotes every lock held in st — used at operations that
// terminate a speculation run mid-critical-section (converting still-held
// speculative locks to conventional ownership, which the Disjoint
// validation skip must never be allowed to race) and at thread exit.
// Tainted states demote too: their held sets over-approximate, which only
// adds demotions, never loses one.
func (ps *progSummary) demoteHeld(st absState, pc int, why string) {
	for _, h := range st.held {
		ps.demoteLock(h.id, fmt.Sprintf("%s at pc %d", why, pc))
	}
}

// recordFootprint folds one abstract execution of a memory access into the
// footprint of every held lock. An access whose address carries no static
// fact at all makes the footprint unbounded and demotes every held lock.
func (ps *progSummary) recordFootprint(pc int, kind accessKind, in *dvm.Instr, st absState) {
	if len(st.held) == 0 {
		return
	}
	addr := in.SAddr
	if !addr.Known && addr.Class == "" {
		for _, h := range st.held {
			ps.demoteLock(h.id, fmt.Sprintf("%s of a statically unknown address at pc %d", kind, pc))
		}
		return
	}
	rec := &fpRecord{kind: kind, addr: addr}
	if in.Op == dvm.OpStore {
		rec.val = in.SValue
	}
	if in.Atom != nil {
		rec.atom = in.Atom.Kind
	}
	for _, h := range st.held {
		m := ps.fp[h.id]
		if m == nil {
			m = map[int]*fpRecord{}
			ps.fp[h.id] = m
		}
		if _, ok := m[pc]; !ok {
			m[pc] = rec
		}
	}
}

// fpEntry is one footprint record lifted into the cross-program pass, with
// enough context to decide whether two entries can run concurrently.
type fpEntry struct {
	progIdx  int // index into the summaries slice (deterministic order)
	pc       int
	nthreads int // threads running the entry's program
	rec      *fpRecord
	prog     string
}

// aliasFact is the three-valued outcome of comparing two static addresses.
type aliasFact uint8

const (
	aliasNo   aliasFact = iota // provably different addresses
	aliasMay                   // no static fact either way
	aliasMust                  // provably the same address
)

// footprintAlias compares two footprint addresses. The polarity is the
// opposite of the race pass's mayAlias: where that pass needs "provably
// may alias" to justify a finding, this pass needs "provably does NOT
// alias" to justify Disjoint, so the no-fact case lands on aliasMay.
func footprintAlias(a, b dvm.SVal) aliasFact {
	if a.Known && b.Known {
		if a.K == b.K {
			return aliasMust
		}
		return aliasNo
	}
	if a.Class != "" && b.Class != "" {
		// Address classes name disjoint abstract regions (the builder's
		// declaration), so different classes cannot alias; a shared class
		// may alias but is never provably equal.
		if a.Class == b.Class {
			return aliasMay
		}
		return aliasNo
	}
	return aliasMay
}

// commutes reports whether two must-aliased accesses commute: executing
// them in either order yields the same final state. Atomic adds commute
// with each other (sum is order-independent, and atomic locations are
// validated separately — validateAtomics is never skipped), and two stores
// of the same known constant commute (either order leaves that constant).
func commutes(a, b *fpRecord) bool {
	if a.kind == accAtomic && b.kind == accAtomic {
		return a.atom == dvm.AtomicAdd && b.atom == dvm.AtomicAdd
	}
	if a.kind == accWrite && b.kind == accWrite {
		return a.val.Known && b.val.Known && a.val.K == b.val.K
	}
	return false
}

// overlapKind classifies one cross-section access pair.
type overlapKind uint8

const (
	overlapNone     overlapKind = iota
	overlapMay                  // class-level may-alias with a write: demote
	overlapCommute              // provable overlap, but the pair commutes
	overlapConflict             // provable non-commuting overlap
)

func classifyPair(a, b *fpRecord) overlapKind {
	if a.kind == accRead && b.kind == accRead {
		return overlapNone // read-read never invalidates a run
	}
	switch footprintAlias(a.addr, b.addr) {
	case aliasNo:
		return overlapNone
	case aliasMust:
		if commutes(a, b) {
			return overlapCommute
		}
		return overlapConflict
	default:
		return overlapMay
	}
}

// describeSVal renders a static address for witness lines.
func describeSVal(a dvm.SVal) string {
	if a.Known {
		return fmt.Sprintf("address %d", a.K)
	}
	return fmt.Sprintf("address class %q", a.Class)
}

// lockMayAliasOperand reports whether a known lock (with the given declared
// class set) may alias a dynamic lock operand of class opClass. A lock with
// any unclassed sync site has no fact to exclude the operand.
func lockMayAliasOperand(classes map[string]bool, opClass string) bool {
	if classes[""] {
		return true
	}
	return classes[opClass]
}

// analyzeFootprints lifts the per-program footprints into the cross-program
// per-lock conflict graph and returns the verdict table. Verdict
// precedence: Conflicting (a provable non-commuting overlap exists — the
// runtime should start conventional regardless of other hazards) beats
// Unknown (any demotion, may-overlap or commuting overlap) beats Disjoint.
func analyzeFootprints(summaries []*progSummary) *SpecHints {
	hints := &SpecHints{Verdicts: map[int64]SpecVerdict{}, Reasons: map[int64]string{}}

	// Gather the verdict domain (every statically known lock), the
	// per-lock entries in deterministic (progIdx, pc) order, the merged
	// demotions, and the dynamic-operand facts.
	lockSet := map[int64]bool{}
	entries := map[int64][]fpEntry{}
	demote := map[int64]string{}
	classes := map[int64]map[string]bool{}
	dynOperands := map[string]bool{}
	setDemote := func(l int64, reason string) {
		if _, ok := demote[l]; !ok {
			demote[l] = reason
		}
	}
	for _, ps := range summaries {
		for id, cls := range ps.lockClasses {
			lockSet[id] = true
			m := classes[id]
			if m == nil {
				m = map[string]bool{}
				classes[id] = m
			}
			for c := range cls {
				m[c] = true
			}
		}
		for id := range ps.fp {
			lockSet[id] = true
		}
		for id := range ps.fpDemote {
			lockSet[id] = true
		}
		for c := range ps.dynLockSeen {
			dynOperands[c] = true
		}
	}
	locks := make([]int64, 0, len(lockSet))
	for l := range lockSet {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })

	for idx, ps := range summaries {
		for _, l := range locks {
			if reason, ok := ps.fpDemote[l]; ok {
				setDemote(l, fmt.Sprintf("%s (program %s)", reason, ps.prog.Name))
			}
			m := ps.fp[l]
			if len(m) == 0 {
				continue
			}
			pcs := make([]int, 0, len(m))
			for pc := range m {
				pcs = append(pcs, pc)
			}
			sort.Ints(pcs)
			for _, pc := range pcs {
				entries[l] = append(entries[l], fpEntry{
					progIdx: idx, pc: pc, nthreads: len(ps.threads),
					rec: m[pc], prog: ps.prog.Name,
				})
			}
		}
		if ps.fpTruncated {
			// The exploration dropped states for this program: any lock it
			// syncs on may have unseen accesses.
			for id := range ps.lockClasses {
				setDemote(id, fmt.Sprintf("state exploration truncated in program %s", ps.prog.Name))
			}
		}
	}

	// Dynamic lock operands: a Lock/Unlock/CondWait whose lock operand the
	// builder could not resolve may alias any known lock its class admits,
	// putting critical sections outside that lock's collected footprint.
	for _, l := range locks {
		for c := range dynOperands {
			if c == "" {
				setDemote(l, "a classless dynamic lock operand may alias any lock")
			} else if lockMayAliasOperand(classes[l], c) {
				setDemote(l, fmt.Sprintf("a dynamic lock operand of class %q may alias this lock", c))
			}
		}
	}

	for _, l := range locks {
		es := entries[l]
		var conflict, commute, mayWhy string
		for i := 0; i < len(es); i++ {
			for j := i; j < len(es); j++ {
				a, b := es[i], es[j]
				// Two entries can only overlap at runtime if they can
				// execute on different threads: always true across
				// programs, and true within one program only when it runs
				// replicated (including an entry against itself).
				if a.progIdx == b.progIdx && a.nthreads < 2 {
					continue
				}
				switch classifyPair(a.rec, b.rec) {
				case overlapConflict:
					if conflict == "" {
						conflict = fmt.Sprintf("%s@pc%d(%s) and %s@pc%d(%s) provably overlap on %s",
							a.rec.kind, a.pc, a.prog, b.rec.kind, b.pc, b.prog, describeSVal(a.rec.addr))
					}
				case overlapCommute:
					if commute == "" {
						commute = fmt.Sprintf("sections overlap only via commuting ops on %s (pc%d/%s × pc%d/%s)",
							describeSVal(a.rec.addr), a.pc, a.prog, b.pc, b.prog)
					}
				case overlapMay:
					if mayWhy == "" {
						mayWhy = fmt.Sprintf("%s@pc%d(%s) and %s@pc%d(%s) may overlap on %s",
							a.rec.kind, a.pc, a.prog, b.rec.kind, b.pc, b.prog, describeSVal(a.rec.addr))
					}
				}
			}
		}
		switch {
		case conflict != "":
			hints.Verdicts[l] = VerdictConflicting
			hints.Reasons[l] = conflict
		case demote[l] != "":
			hints.Verdicts[l] = VerdictUnknown
			hints.Reasons[l] = demote[l]
		case mayWhy != "":
			hints.Verdicts[l] = VerdictUnknown
			hints.Reasons[l] = mayWhy
		case commute != "":
			hints.Verdicts[l] = VerdictUnknown
			hints.Reasons[l] = commute
		default:
			hints.Verdicts[l] = VerdictDisjoint
			if len(es) == 0 {
				hints.Reasons[l] = "no guarded accesses"
			} else {
				hints.Reasons[l] = fmt.Sprintf("all %d guarded accesses provably non-overlapping across threads", len(es))
			}
		}
	}
	return hints
}
