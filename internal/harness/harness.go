// Package harness wires workloads to engines and runs experiments: it
// constructs the substrate each engine needs (versioned heap or direct
// shared memory, turn arbiter, synchronization table), loads the workload's
// initial data, runs the programs, and collects the measurements the
// paper's tables and figures report.
package harness

import (
	"fmt"
	"runtime"
	"time"

	"lazydet/internal/core"
	"lazydet/internal/detsync"
	"lazydet/internal/dlc"
	"lazydet/internal/dvm"
	"lazydet/internal/engine/direct"
	"lazydet/internal/invariant"
	"lazydet/internal/progcheck"
	"lazydet/internal/shmem"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
	"lazydet/internal/trace"
	"lazydet/internal/vheap"
)

// EngineKind names the five systems of the paper's evaluation.
type EngineKind int

const (
	// Pthreads is the nondeterministic baseline every result is
	// normalized against.
	Pthreads EngineKind = iota
	// Consequence is eager strong determinism (Merrifield et al.,
	// EuroSys'15), the state of the art LazyDet is compared to.
	Consequence
	// TotalOrderWeak is eager weak determinism (Kendo-style): a
	// deterministic total order on synchronization without isolation.
	TotalOrderWeak
	// TotalOrderWeakNondet totally orders synchronization through a
	// global mutex, nondeterministically — the "perfect logical clock"
	// simulation.
	TotalOrderWeakNondet
	// LazyDet is the paper's contribution: strong determinism with
	// speculative order elision.
	LazyDet
)

// AllEngines lists the engines in the order the paper's figures plot them.
var AllEngines = []EngineKind{Pthreads, Consequence, TotalOrderWeak, TotalOrderWeakNondet, LazyDet}

// String returns the evaluation's name for the engine.
func (k EngineKind) String() string {
	switch k {
	case Pthreads:
		return "pthreads"
	case Consequence:
		return "Consequence"
	case TotalOrderWeak:
		return "TotalOrder-Weak"
	case TotalOrderWeakNondet:
		return "TotalOrder-Weak-Nondet"
	case LazyDet:
		return "LazyDet"
	}
	return "unknown"
}

// Deterministic reports whether the engine guarantees deterministic
// execution (for TotalOrderWeak: of data-race-free programs).
func (k EngineKind) Deterministic() bool {
	return k == Consequence || k == TotalOrderWeak || k == LazyDet
}

// Workload describes one benchmark program: its memory and synchronization
// footprint, per-thread programs, initial data, and an optional final
// correctness check.
type Workload struct {
	// Name is the benchmark's name as the paper reports it.
	Name string
	// HeapWords is the shared memory size in 64-bit words.
	HeapWords int64
	// Locks, Conds and Barriers size the synchronization object tables.
	Locks, Conds, Barriers int
	// Programs builds the per-thread programs for a thread count.
	Programs func(threads int) []*dvm.Program
	// Init loads initial shared-memory contents.
	Init func(set func(addr, val int64), threads int)
	// Validate, if non-nil, checks the final shared memory.
	Validate func(read func(addr int64) int64, threads int) error
}

// Options configures one run.
type Options struct {
	Engine  EngineKind
	Threads int
	// Trace enables sync-order trace recording (determinism checks).
	Trace bool
	// LogEvents additionally keeps the full per-thread event streams,
	// for divergence diffing (implies Trace).
	LogEvents bool
	// MeasureTimes enables blocked-time accounting (Figure 10).
	MeasureTimes bool
	// CollectSpec enables speculation statistics (Table 2, Figure 12).
	CollectSpec bool
	// CountLocks enables per-lock acquisition counting on the pthreads
	// engine (Table 1).
	CountLocks bool
	// Spec overrides LazyDet's speculation parameters; zero value means
	// the paper's defaults.
	Spec core.SpecConfig
	// PageWords overrides the versioned heap's page size; it must be a
	// power of two.
	PageWords int
	// FullVersionChains retains every page version (DLRC-style
	// accounting) instead of trimming to live bases (§4.2 experiment).
	FullVersionChains bool
	// Telemetry enables the unified metrics registry
	// (internal/telemetry): the engine, versioned heap and memory pipeline
	// publish counters and histograms into one recorder, available as
	// Result.Telemetry after the run and convertible to a run report with
	// BuildReport. Off by default; when off the publishers pay one nil
	// compare each.
	Telemetry bool
	// TelemetrySpans additionally records per-thread DLC-stamped span
	// timelines (turn waits, speculation runs, commits, reverts) for the
	// Chrome-trace exporter. Implies Telemetry.
	TelemetrySpans bool
	// CheckInvariants enables the runtime invariant audit layer
	// (internal/invariant) on the deterministic engines: turn-holder
	// uniqueness, heap commit monotonicity and chain integrity,
	// lock-table consistency, and snapshot round-trip exactness are
	// asserted at every turn grant and commit/revert. Off by default;
	// enabling it costs roughly the lock-table size per synchronization
	// operation.
	CheckInvariants bool
	// OnViolation receives structured invariant violations when
	// CheckInvariants is set; nil means a violation panics (repeatably,
	// since the engines are deterministic).
	OnViolation func(*invariant.Violation)
	// Vet runs the internal/progcheck static analyzer over the workload's
	// programs before execution. Error-severity findings (definite lock
	// discipline violations) abort the run; warnings (potential deadlocks,
	// race candidates) are kept on Result.Vet for the caller to surface.
	Vet bool
	// SpecHints runs the progcheck footprint analysis over the workload's
	// programs and seeds LazyDet's speculation policy with the per-lock
	// verdicts: Disjoint locks always speculate and skip their validation
	// checks, Conflicting locks start conventional, everything else is
	// left to runtime adaptation. No effect on the other engines. The
	// unhinted policy is the differential oracle: final heap hashes and
	// Validate outcomes must be identical with this flag flipped
	// (lazydet-fuzz property 9). Reuses Result.Vet's report when Vet is
	// also set.
	SpecHints bool
}

// Result is one run's measurements.
type Result struct {
	Engine   EngineKind
	Workload string
	Threads  int
	Wall     time.Duration
	// CPU is the process CPU time consumed by the run.
	CPU time.Duration
	// HeapHash fingerprints the final shared memory.
	HeapHash uint64
	// TraceSig fingerprints the synchronization order (0 if untraced).
	TraceSig uint64
	// SyncEvents counts traced synchronization events.
	SyncEvents int64
	// Recorder is the trace recorder when tracing was enabled; with
	// LogEvents it carries the full event streams for diffing.
	Recorder *trace.Recorder
	// Commits/PagesCommitted/WordsCommitted are versioned-heap totals
	// (strong engines only).
	Commits, PagesCommitted, WordsCommitted int64
	// WordsScanned counts the words commits examined to find the committed
	// ones (strong engines only): the dirty bitmaps' population.
	WordsScanned int64
	// LiveVersions counts page versions still reachable after the run
	// (strong engines only).
	LiveVersions int
	// ArbiterWakes/ArbiterGrantWork are the turn arbiter's cost counters
	// (deterministic engines only): cross-thread grants (turns handed to a
	// sleeping waiter, one wakeup each), and key-comparison work done
	// electing minimum turns. Scheduling-dependent — informational, not
	// deterministic machine state.
	ArbiterWakes, ArbiterGrantWork int64
	// ArbiterChainHits counts consecutive same-thread turn grants — the
	// grant-chaining opportunity the tournament tree's fast path exploits.
	// A function of the deterministic grant sequence alone.
	ArbiterChainHits int64
	// Spec carries speculation statistics when collected.
	Spec *stats.Spec
	// Times carries per-thread blocked-time accounting when measured.
	Times *stats.Times
	// Telemetry is the run's metrics registry when Options.Telemetry (or
	// TelemetrySpans) was set.
	Telemetry *telemetry.Recorder
	// Counter carries per-lock acquisition counts when collected.
	Counter *stats.LockCounter
	// UtilizationPct is the machine-level CPU utilization of the run
	// (process CPU time / (wall × NumCPU)) when measured — Figure 10's
	// metric.
	UtilizationPct float64
	// BlockedPct is the fraction of total thread-time spent blocked
	// (turn waits, lock waits, parks) when measured.
	BlockedPct float64
	// Vet is the static-analysis report when Options.Vet was set. It is
	// populated even when vet aborts the run, so callers can render the
	// findings.
	Vet *progcheck.Report
	// Hints is the footprint-analysis verdict table when Options.SpecHints
	// was set on a LazyDet run.
	Hints *progcheck.SpecHints
	// LockReverts counts, per lock ID, speculation reverts attributed to
	// that lock's validation checks (LazyDet only; see
	// detsync.Lock.ConflictReverts). Statically Disjoint locks must stay
	// at zero.
	LockReverts []int64
	// Allocs is the process heap-allocation count (runtime mallocs) over
	// the run, measured when any of Telemetry, TelemetrySpans or
	// MeasureTimes is set. Informational only: the Go runtime's
	// allocation behavior is not part of the deterministic machine state.
	Allocs int64
}

// Run executes the workload once under the configured engine.
func Run(w *Workload, opt Options) (*Result, error) {
	if opt.Threads <= 0 {
		return nil, fmt.Errorf("harness: thread count %d", opt.Threads)
	}
	if opt.PageWords < 0 || opt.PageWords&(opt.PageWords-1) != 0 {
		return nil, fmt.Errorf("harness: page size %d words is not a power of two", opt.PageWords)
	}
	if w.HeapWords < 0 || w.Locks < 0 || w.Conds < 0 || w.Barriers < 0 {
		return nil, fmt.Errorf("harness: workload %s has a negative size (heap %d words, %d locks, %d conds, %d barriers)",
			w.Name, w.HeapWords, w.Locks, w.Conds, w.Barriers)
	}
	progs := w.Programs(opt.Threads)
	if len(progs) != opt.Threads {
		return nil, fmt.Errorf("harness: workload %s built %d programs for %d threads", w.Name, len(progs), opt.Threads)
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("harness: workload %s, thread %d: %w", w.Name, i, err)
		}
	}

	res := &Result{Engine: opt.Engine, Workload: w.Name, Threads: opt.Threads}

	var rec *trace.Recorder
	if opt.LogEvents {
		rec = trace.NewLogging(opt.Threads)
	} else if opt.Trace {
		rec = trace.New(opt.Threads)
	}
	var times *stats.Times
	if opt.MeasureTimes {
		times = stats.NewTimes(opt.Threads)
	}
	var spec *stats.Spec
	if opt.CollectSpec {
		spec = &stats.Spec{}
	}
	var tel *telemetry.Recorder
	if opt.TelemetrySpans {
		tel = telemetry.NewWithSpans(opt.Threads)
	} else if opt.Telemetry {
		tel = telemetry.New()
	}

	if opt.Vet {
		vet := progcheck.Check(progs)
		res.Vet = vet
		vet.Publish(tel)
		if n := vet.CountBySeverity(progcheck.SevError); n > 0 {
			return res, fmt.Errorf("harness: workload %s failed static vet with %d error finding(s):\n%s",
				w.Name, n, vet.Human())
		}
	}
	var hints []core.SpecHint
	if opt.SpecHints && opt.Engine == LazyDet {
		rep := res.Vet
		if rep == nil {
			// Vet didn't run: do the analysis here and publish only the
			// hint verdict counters (the full progcheck.* namespace is
			// Options.Vet's contract).
			rep = progcheck.Check(progs)
			rep.Hints.Publish(tel)
		}
		res.Hints = rep.Hints
		hints = lowerHints(rep.Hints, w.Locks)
	}

	var eng dvm.Engine
	var readFinal func(int64) int64
	var heap *vheap.Heap
	var tbl *detsync.Table // strong engines only: read back after the run

	switch opt.Engine {
	case Pthreads:
		mem := shmem.New(w.HeapWords)
		if w.Init != nil {
			w.Init(mem.SetInitial, opt.Threads)
		}
		de := direct.New(mem, opt.Threads, w.Locks, w.Conds, w.Barriers)
		de.Times = times
		if opt.CountLocks {
			de.Counter = stats.NewLockCounter(w.Locks)
			res.Counter = de.Counter
		}
		eng = de
		readFinal = mem.ReadCommitted
		defer func() { res.HeapHash = mem.Hash() }()

	case Consequence, LazyDet:
		var hopts []vheap.Option
		if opt.PageWords > 0 {
			hopts = append(hopts, vheap.WithPageWords(opt.PageWords))
		}
		if opt.FullVersionChains {
			hopts = append(hopts, vheap.WithFullVersionChains())
		}
		if tel != nil {
			hopts = append(hopts, vheap.WithTelemetry(tel))
		}
		heap = vheap.New(w.HeapWords, hopts...)
		if w.Init != nil {
			w.Init(heap.SetInitial, opt.Threads)
		}
		cfg := core.Config{
			Mode:            core.ModeStrong,
			Speculation:     opt.Engine == LazyDet,
			Spec:            opt.Spec,
			CheckInvariants: opt.CheckInvariants,
			Hints:           hints,
		}
		arb := dlc.New(opt.Threads)
		defer publishArbStats(tel, arb, res)
		tbl = detsync.NewTable(opt.Threads, w.Locks, w.Conds, w.Barriers, opt.Engine == LazyDet)
		eng = core.New(cfg, core.Deps{
			Arb:         arb,
			Tbl:         tbl,
			Heap:        heap,
			Rec:         rec,
			Times:       times,
			Spec:        spec,
			Tel:         tel,
			OnViolation: opt.OnViolation,
		})
		readFinal = heap.ReadCommitted
		defer func() {
			res.HeapHash = heap.Hash()
			st := heap.Stats()
			res.Commits, res.PagesCommitted, res.WordsCommitted = st.Commits, st.Pages, st.Words
			res.WordsScanned = st.WordsScanned
			res.LiveVersions = heap.LiveVersions()
		}()

	case TotalOrderWeak, TotalOrderWeakNondet:
		mem := shmem.New(w.HeapWords)
		if w.Init != nil {
			w.Init(mem.SetInitial, opt.Threads)
		}
		mode := core.ModeWeak
		arb := dlc.New(opt.Threads)
		if opt.Engine == TotalOrderWeakNondet {
			mode = core.ModeWeakNondet
			arb = dlc.NewNondet(opt.Threads)
		}
		defer publishArbStats(tel, arb, res)
		eng = core.New(core.Config{Mode: mode, CheckInvariants: opt.CheckInvariants}, core.Deps{
			Arb:         arb,
			Tbl:         detsync.NewTable(opt.Threads, w.Locks, w.Conds, w.Barriers, false),
			Mem:         mem,
			Rec:         rec,
			Times:       times,
			Tel:         tel,
			OnViolation: opt.OnViolation,
		})
		readFinal = mem.ReadCommitted
		defer func() { res.HeapHash = mem.Hash() }()

	default:
		return nil, fmt.Errorf("harness: unknown engine %d", opt.Engine)
	}

	// ReadMemStats stops the world, so the allocation count is only taken
	// when the caller already opted into measurement overhead.
	measureAllocs := opt.Telemetry || opt.TelemetrySpans || opt.MeasureTimes
	var mallocsBefore uint64
	if measureAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocsBefore = ms.Mallocs
	}
	cpuBefore := stats.ProcessCPUNs()
	start := time.Now()
	dvm.Run(eng, progs)
	res.Wall = time.Since(start)
	cpuAfter := stats.ProcessCPUNs()
	res.CPU = time.Duration(cpuAfter - cpuBefore)
	if measureAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Allocs = int64(ms.Mallocs - mallocsBefore)
	}

	if rec != nil {
		res.TraceSig = rec.Signature()
		res.SyncEvents = rec.Events()
		res.Recorder = rec
	}
	res.Spec = spec
	res.Times = times
	if opt.Engine == LazyDet && tbl != nil {
		res.LockReverts = make([]int64, len(tbl.Locks))
		for i := range tbl.Locks {
			res.LockReverts[i] = tbl.Locks[i].ConflictReverts
		}
	}
	if times != nil {
		capacity := res.Wall.Nanoseconds() * int64(runtime.NumCPU())
		if capacity > 0 {
			res.UtilizationPct = 100 * float64(cpuAfter-cpuBefore) / float64(capacity)
			if res.UtilizationPct > 100 {
				res.UtilizationPct = 100
			}
		}
		res.BlockedPct = 100 - times.UtilizationPct(res.Wall.Nanoseconds(), opt.Threads)
	}
	if tel != nil {
		absorbStats(tel, res)
		res.Telemetry = tel
	}
	if w.Validate != nil {
		if err := w.Validate(readFinal, opt.Threads); err != nil {
			return res, fmt.Errorf("harness: %s under %s: %w", w.Name, opt.Engine, err)
		}
	}
	return res, nil
}

// lowerHints converts the analyzer's verdict table into the engine's dense
// per-lock prior slice. Locks without a verdict (or beyond the workload's
// lock table) stay HintNone.
func lowerHints(h *progcheck.SpecHints, nlocks int) []core.SpecHint {
	if h == nil || len(h.Verdicts) == 0 || nlocks <= 0 {
		return nil
	}
	out := make([]core.SpecHint, nlocks)
	for _, l := range h.Locks() {
		if l < 0 || l >= int64(nlocks) {
			continue
		}
		switch h.Verdicts[l] {
		case progcheck.VerdictDisjoint:
			out[l] = core.HintDisjoint
		case progcheck.VerdictConflicting:
			out[l] = core.HintConflicting
		}
	}
	return out
}

// publishArbStats records the arbiter's cost counters after a run. Wakes,
// grant work and fast-path chain grants depend on which threads were already
// asleep as waiters when their turn came — real goroutine scheduling — so
// they are routed into the never-gated Timing section (see timingCounters); the
// tournament depth is a pure function of the thread count, and chain hits a
// function of the deterministic grant sequence, so both stay gated metrics.
func publishArbStats(tel *telemetry.Recorder, arb *dlc.Arbiter, res *Result) {
	st := arb.Stats()
	res.ArbiterWakes, res.ArbiterGrantWork = st.Wakes, st.GrantWork
	res.ArbiterChainHits = st.ChainHits
	if tel != nil {
		tel.Count("dlc.wakes", st.Wakes)
		tel.Count("dlc.grant_work", st.GrantWork)
		tel.Count("dlc.chain_hits", st.ChainHits)
		tel.Count("dlc.chain_fast", st.ChainFast)
		tel.SetGauge("dlc.arbiter_depth", float64(st.Depth))
	}
}
