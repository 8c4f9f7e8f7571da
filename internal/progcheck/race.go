package progcheck

import (
	"fmt"
	"sort"
)

// findRaces reports pairs of memory accesses that (a) may alias — same known
// constant address, or the same declared address class — (b) conflict (at
// least one write, not both atomic), (c) can overlap in time (barrier phases
// intersect), and (d) are not ordered by a common lock in some reachable
// pair of locksets.
func findRaces(summaries []*progSummary) []Finding {
	type owned struct {
		a  *access
		ps *progSummary
	}
	var all []owned
	for _, ps := range summaries {
		pcs := make([]int, 0, len(ps.accesses))
		for pc := range ps.accesses {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			all = append(all, owned{ps.accesses[pc], ps})
		}
	}

	var findings []Finding
	seen := map[string]bool{}
	for i := 0; i < len(all); i++ {
		for j := i; j < len(all); j++ {
			x, y := all[i], all[j]
			if x.ps == y.ps && len(x.ps.threads) < 2 {
				continue // a single thread cannot race with itself
			}
			if i == j && x.a.kind == accRead {
				continue
			}
			if !conflicting(x.a, y.a) || !mayAlias(x.a, y.a) || !phasesOverlap(x.a, y.a) {
				continue
			}
			if protected(x.a, y.a) {
				continue
			}
			key := fmt.Sprintf("%s/%d|%s/%d", x.ps.prog.Name, x.a.pc, y.ps.prog.Name, y.a.pc)
			if seen[key] {
				continue
			}
			seen[key] = true
			findings = append(findings, Finding{
				Class: ClassRace, Severity: SevWarn,
				Message: fmt.Sprintf("conflicting %s and %s of %s with no common lock",
					x.a.kind, y.a.kind, describeAddr(x.a)),
				Sites: []Site{
					x.ps.site(x.a.pc, fmt.Sprintf("%s, locked by %s", x.a.kind, describeLocksets(x.a))),
					y.ps.site(y.a.pc, fmt.Sprintf("%s, locked by %s", y.a.kind, describeLocksets(y.a))),
				},
			})
		}
	}
	return findings
}

// conflicting: at least one side writes, and the pair is not two atomics
// (the engine serializes atomic RMWs on the same word).
func conflicting(a, b *access) bool {
	if a.kind == accRead && b.kind == accRead {
		return false
	}
	if a.kind == accAtomic && b.kind == accAtomic {
		return false
	}
	return true
}

// mayAlias uses only the static facts the builder declared: two known
// constants alias iff equal; two class-tagged operands alias iff the class
// matches (classes are disjoint by declaration). A known constant and a
// class, or anything involving a fully unknown operand, yields no aliasing
// fact — and hence no finding.
func mayAlias(a, b *access) bool {
	switch {
	case a.addr.Known && b.addr.Known:
		return a.addr.K == b.addr.K
	case a.addr.Class != "" && b.addr.Class != "":
		return a.addr.Class == b.addr.Class
	default:
		return false
	}
}

// phasesOverlap reports whether the two accesses can execute in the same
// barrier phase. Threads that never hit a barrier stay in phase 0 and
// overlap everything that can run in phase 0.
func phasesOverlap(a, b *access) bool {
	for p := range a.phases {
		if b.phases[p] {
			return true
		}
	}
	return false
}

// protected reports whether every reachable pair of locksets shares a lock
// that orders the two accesses. A common lock protects unless both sides
// hold it in read mode (two readers run concurrently — but then a writer
// holding only the read mode is exactly the confusion worth reporting).
func protected(a, b *access) bool {
	for _, la := range a.locksets {
		for _, lb := range b.locksets {
			if !locksetsProtect(la, lb) {
				return false
			}
		}
	}
	return true
}

func locksetsProtect(la, lb []heldLock) bool {
	for _, x := range la {
		for _, y := range lb {
			if x.id == y.id && !(x.mode == modeRead && y.mode == modeRead) {
				return true
			}
		}
	}
	return false
}

func describeAddr(a *access) string {
	if a.addr.Known {
		return fmt.Sprintf("address %d", a.addr.K)
	}
	return fmt.Sprintf("address class %q", a.addr.Class)
}

func describeLocksets(a *access) string {
	keys := make([]string, 0, len(a.locksets))
	for k := range a.locksets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " | "
		}
		ls := a.locksets[k]
		if len(ls) == 0 {
			out += "{}"
			continue
		}
		out += "{"
		for j, h := range ls {
			if j > 0 {
				out += ","
			}
			out += fmt.Sprintf("%d:%s", h.id, h.mode)
		}
		out += "}"
	}
	if out == "" {
		return "{}"
	}
	return out
}
