// Package progcheck statically analyzes sets of dvm programs for the
// properties the LazyDet engines assume but never check before running:
// lock discipline, deadlock-freedom under any turn order, and data-race
// freedom under the locks the program actually takes.
//
// The analyzer builds a control-flow graph per program from the Code/Target
// edges, then runs a forward abstract interpretation of synchronization
// state: the abstract domain is a set of locksets (lock ID → acquisition
// mode) per program point, extended with a barrier-phase counter and a
// taint bit. Static operand knowledge comes from dvm.SVal, the metadata the
// Builder records for dvm.Const operands and InClass tags; an operand the
// builder could not resolve is *unknown*, and the analysis degrades soundly:
// a sync operation on an unknown object taints the state, and tainted states
// produce no findings. The analyzer therefore never reports a finding it
// cannot justify from static facts — precision scales with how much of the
// program is built from constants, and `Stats.UnknownSyncOps` quantifies
// the loss.
//
// Four analyses run over the abstract states:
//
//   - lock discipline (lockstate.go): double-lock, unlock-without-lock,
//     read/write-mode confusion, locks still held on a path to OpHalt, and
//     OpCondWait without its mutex held;
//   - potential deadlocks (deadlock.go): a cross-program lock-order graph,
//     with cycle detection, gate-lock suppression and a thread-feasibility
//     check, reporting the witness cycle;
//   - potential data races (race.go): conflicting OpLoad/OpStore/OpAtomic
//     address classes whose static locksets are disjoint and whose barrier
//     phases can overlap;
//   - critical-section footprints (footprint.go): per-lock read/write
//     footprints lifted into a cross-program conflict graph classifying
//     every statically known lock as Disjoint, Conflicting or Unknown —
//     the Report.Hints table that seeds LazyDet's speculation policy
//     through harness.Options.SpecHints.
//
// cmd/lazydet-vet exposes the analyzer on the command line, and
// harness.Options.Vet runs it as a pre-run check.
package progcheck

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lazydet/internal/dvm"
)

// Severity ranks findings.
type Severity uint8

const (
	// SevInfo marks observations that are not defects.
	SevInfo Severity = iota
	// SevWarn marks potential defects: the analysis found a static
	// configuration that can misbehave under some schedule (deadlock
	// cycles, data-race candidates).
	SevWarn
	// SevError marks definite discipline violations on some executable
	// path (double-lock, unlock-without-lock, lock held at exit).
	SevError
)

// String returns the report name of the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return "unknown"
}

// MarshalText implements encoding.TextMarshaler for JSON reports.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Class names a finding category.
type Class string

// The finding classes the analyzer reports.
const (
	ClassDoubleLock        Class = "double-lock"
	ClassUnlockWithoutLock Class = "unlock-without-lock"
	ClassRWConfusion       Class = "rw-confusion"
	ClassHeldAtExit        Class = "lock-held-at-exit"
	ClassCondWaitNoMutex   Class = "condwait-without-mutex"
	ClassDeadlock          Class = "deadlock-cycle"
	ClassRace              Class = "data-race"
)

// Site is one program location participating in a finding.
type Site struct {
	// Thread is the index of a thread running the program (the lowest,
	// when the program is replicated across several).
	Thread int `json:"thread"`
	// Prog is the program name.
	Prog string `json:"prog"`
	// PC is the instruction index.
	PC int `json:"pc"`
	// Detail describes the site's role in the finding.
	Detail string `json:"detail,omitempty"`
}

func (s Site) String() string {
	d := ""
	if s.Detail != "" {
		d = " (" + s.Detail + ")"
	}
	return fmt.Sprintf("thread %d %q pc %d%s", s.Thread, s.Prog, s.PC, d)
}

// Finding is one analyzer report.
type Finding struct {
	Class    Class    `json:"class"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	// Sites lists the participating locations; the first is primary.
	Sites []Site `json:"sites,omitempty"`
}

// String renders the finding in the human report format.
func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s", strings.ToUpper(f.Severity.String()), f.Class, f.Message)
	for _, s := range f.Sites {
		fmt.Fprintf(&b, "\n    at %s", s)
	}
	return b.String()
}

// Stats summarizes one analysis run.
type Stats struct {
	// Programs counts distinct programs analyzed (replicas dedup).
	Programs int `json:"programs"`
	// Threads is the thread count of the analyzed set.
	Threads int `json:"threads"`
	// Instructions counts instructions across distinct programs.
	Instructions int `json:"instructions"`
	// States counts abstract states explored.
	States int `json:"states"`
	// UnknownSyncOps counts synchronization operations whose object the
	// builder could not resolve statically; each one degrades precision
	// (the sound fallback) but never soundness.
	UnknownSyncOps int `json:"unknown_sync_ops"`
	// AnalysisNs is the total analysis wall time; the four fields after it
	// split the total per analysis. All machine-dependent: report them,
	// never gate on them.
	AnalysisNs  int64 `json:"analysis_ns"`
	LockstateNs int64 `json:"lockstate_ns"`
	DeadlockNs  int64 `json:"deadlock_ns"`
	RaceNs      int64 `json:"race_ns"`
	FootprintNs int64 `json:"footprint_ns"`
}

// Report is the analyzer's result for one program set.
type Report struct {
	Findings []Finding `json:"findings"`
	Stats    Stats     `json:"stats"`
	// Hints is the footprint analysis verdict table (one entry per
	// statically known lock). Hints are facts about speculation payoff,
	// not defects, so they are reported here rather than as Findings.
	Hints *SpecHints `json:"hints,omitempty"`
}

// CountBySeverity returns the number of findings at exactly sev.
func (r *Report) CountBySeverity(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// Classes returns the sorted distinct finding classes of the report.
func (r *Report) Classes() []Class {
	seen := map[Class]bool{}
	for _, f := range r.Findings {
		seen[f.Class] = true
	}
	cs := make([]Class, 0, len(seen))
	for c := range seen {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// Human renders the full report for terminals.
func (r *Report) Human() string {
	var b strings.Builder
	if len(r.Findings) == 0 {
		b.WriteString("no findings\n")
	}
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	if h := r.Hints.Human(); h != "" {
		b.WriteString(h)
	}
	fmt.Fprintf(&b, "%d program(s), %d thread(s), %d instruction(s), %d state(s), %d unknown sync op(s)\n",
		r.Stats.Programs, r.Stats.Threads, r.Stats.Instructions, r.Stats.States, r.Stats.UnknownSyncOps)
	return b.String()
}

// Check analyzes the program set progs, where progs[i] is the program thread
// i runs — exactly the slice a harness.Workload builds. Replicated programs
// (the same *dvm.Program on several threads) are analyzed once and treated
// as concurrent instances for the cross-program analyses.
func Check(progs []*dvm.Program) *Report {
	start := time.Now()
	rep := &Report{Stats: Stats{Threads: len(progs)}}

	// Deduplicate replicas, preserving first-thread order.
	type distinct struct {
		p       *dvm.Program
		threads []int
	}
	var ds []*distinct
	index := map[*dvm.Program]*distinct{}
	for tid, p := range progs {
		if d, ok := index[p]; ok {
			d.threads = append(d.threads, tid)
			continue
		}
		d := &distinct{p: p, threads: []int{tid}}
		index[p] = d
		ds = append(ds, d)
	}

	var summaries []*progSummary
	for _, d := range ds {
		s := analyzeProgram(d.p, d.threads)
		summaries = append(summaries, s)
		rep.Stats.Programs++
		rep.Stats.Instructions += len(d.p.Code)
		rep.Stats.States += s.statesExplored
		rep.Stats.UnknownSyncOps += s.unknownSyncOps
		rep.Findings = append(rep.Findings, s.findings...)
	}
	t1 := time.Now()
	rep.Stats.LockstateNs = t1.Sub(start).Nanoseconds()

	rep.Findings = append(rep.Findings, findDeadlocks(summaries)...)
	t2 := time.Now()
	rep.Stats.DeadlockNs = t2.Sub(t1).Nanoseconds()

	rep.Findings = append(rep.Findings, findRaces(summaries)...)
	t3 := time.Now()
	rep.Stats.RaceNs = t3.Sub(t2).Nanoseconds()

	rep.Hints = analyzeFootprints(summaries)
	rep.Stats.FootprintNs = time.Since(t3).Nanoseconds()

	sortFindings(rep.Findings)
	rep.Stats.AnalysisNs = time.Since(start).Nanoseconds()
	return rep
}

// sortFindings orders findings deterministically: severity descending, then
// class, then message, then primary site.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		as, bs := "", ""
		if len(a.Sites) > 0 {
			as = a.Sites[0].String()
		}
		if len(b.Sites) > 0 {
			bs = b.Sites[0].String()
		}
		return as < bs
	})
}
