// Package lazydet is a deterministic multithreading (DMT) runtime for Go,
// reproducing "Lazy Determinism for Faster Deterministic Multithreading"
// (Merrifield, Roghanchi, Devietti, Eriksson — ASPLOS 2019).
//
// The library executes multithreaded programs — written for its
// deterministic thread VM — under five interchangeable engines:
//
//   - Pthreads: plain locks over shared memory, nondeterministic (the
//     baseline every result is normalized to);
//   - Consequence: eager strong determinism — a deterministic logical
//     clock totally orders all synchronization, and versioned memory
//     isolates threads between synchronization points;
//   - TotalOrderWeak: the same total order without isolation
//     (Kendo-style weak determinism);
//   - TotalOrderWeakNondet: total ordering through a global mutex,
//     nondeterministically;
//   - LazyDet: the paper's contribution — lazy determinism. Lock
//     acquisitions run speculatively with no global coordination;
//     determinism is enforced after the fact by validating, at a
//     deterministic commit point, that no lock in the run's log was
//     acquired by another thread since the run began. Failed runs roll
//     back (thread state snapshot + versioned-memory revert) and re-run.
//
// Programs are built with the structured Builder API:
//
//	b := lazydet.NewProgram("counter")
//	i, v := b.Reg(), b.Reg()
//	b.ForN(i, 1000, func() {
//		b.Lock(lazydet.Const(0))
//		b.Load(v, lazydet.Const(0))
//		b.Store(lazydet.Const(0), func(t *lazydet.Thread) int64 { return t.R(v) + 1 })
//		b.Unlock(lazydet.Const(0))
//	})
//	prog := b.Build()
//
// and run through a Workload:
//
//	w := &lazydet.Workload{
//		Name: "counter", HeapWords: 8, Locks: 1,
//		Programs: func(threads int) []*lazydet.Program { ... },
//	}
//	res, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.LazyDet, Threads: 8})
//
// Two runs of a deterministic engine on the same workload produce
// identical synchronization traces and final memory; Verify checks this,
// and names the first diverging synchronization event when it fails.
//
// Setting Options.CheckInvariants additionally audits the runtime's own
// safety invariants (turn-holder uniqueness, heap commit monotonicity,
// lock-table consistency, speculation-revert exactness) at every turn grant
// and commit/revert. A breach makes Run return an error wrapping a
// structured InvariantViolation observed at the violating operation:
//
//	_, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.LazyDet, Threads: 8, CheckInvariants: true})
//	var v *lazydet.InvariantViolation
//	if errors.As(err, &v) { ... v.Rule, v.Thread, v.DLC ... }
package lazydet

import (
	"fmt"

	"lazydet/internal/core"
	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/invariant"
	"lazydet/internal/trace"
)

// Core program-building types, re-exported from the deterministic VM.
type (
	// Builder assembles a Program with structured control flow.
	Builder = dvm.Builder
	// Program is an immutable instruction sequence for one thread.
	Program = dvm.Program
	// Thread is the per-thread VM state passed to instruction closures.
	Thread = dvm.Thread
	// Reg names a VM register.
	Reg = dvm.Reg
	// Syscall describes an irrevocable external operation.
	Syscall = dvm.Syscall
)

// Experiment-running types, re-exported from the harness.
type (
	// Workload describes a benchmark: memory and lock footprint,
	// per-thread programs, initial data and a final check.
	Workload = harness.Workload
	// Options selects the engine, thread count and instrumentation.
	Options = harness.Options
	// Result carries one run's measurements.
	Result = harness.Result
	// EngineKind names one of the five systems.
	EngineKind = harness.EngineKind
	// SpecConfig selects the paper's Figure 11 ablations of LazyDet's
	// speculation; the zero value is the full system.
	SpecConfig = core.SpecConfig
	// InvariantViolation is the structured diagnostic of a breach the
	// audit finds when Options.CheckInvariants is set: the broken rule, the
	// observing thread, its logical clock and turn status, and the
	// offending lock. Run's error wraps the first one, so errors.As
	// retrieves it; the engines are deterministic, so it is repeatable.
	InvariantViolation = invariant.Violation
)

// The five engines of the paper's evaluation.
const (
	Pthreads             = harness.Pthreads
	Consequence          = harness.Consequence
	TotalOrderWeak       = harness.TotalOrderWeak
	TotalOrderWeakNondet = harness.TotalOrderWeakNondet
	LazyDet              = harness.LazyDet
)

// NewProgram starts building a thread program.
func NewProgram(name string) *Builder { return dvm.NewBuilder(name) }

// Const returns an operand for a constant, recorded statically for lazydet-vet.
func Const(v int64) dvm.Val { return dvm.Const(v) }

// FromReg returns an operand reading register r.
func FromReg(r Reg) dvm.Val { return dvm.FromReg(r) }

// Dyn wraps an arbitrary closure as an operand; the static analyzer treats
// it as unknown.
func Dyn(f func(*Thread) int64) dvm.Val { return dvm.Dyn(f) }

// Run executes the workload once under the configured engine.
func Run(w *Workload, opt Options) (*Result, error) { return harness.Run(w, opt) }

// Verify runs the workload twice under the given options (forcing full
// event-log trace recording) and returns an error if the two executions
// differ in final memory or synchronization order — the determinism check.
// On divergence the error names the first diverging synchronization event of
// each affected thread (via internal/trace's log diffing), not just the
// mismatched hashes, so the failure points at a cause rather than a symptom.
func Verify(w *Workload, opt Options) error {
	opt.Trace = true
	opt.LogEvents = true
	r1, err := Run(w, opt)
	if err != nil {
		return err
	}
	r2, err := Run(w, opt)
	if err != nil {
		return err
	}
	if r1.HeapHash == r2.HeapHash && r1.TraceSig == r2.TraceSig {
		return nil
	}
	what := "sync order"
	if r1.HeapHash != r2.HeapHash {
		what = "final memory"
		if r1.TraceSig != r2.TraceSig {
			what = "final memory and sync order"
		}
	}
	if divs := trace.DiffLogs(r1.Recorder, r2.Recorder); len(divs) > 0 {
		return fmt.Errorf("lazydet: %s under %s is not deterministic (%s differ): first divergence at %s",
			w.Name, opt.Engine, what, divs[0])
	}
	// Memory diverged with identical sync streams: a value (not order)
	// difference, e.g. a nondeterministic instruction closure.
	return fmt.Errorf("lazydet: %s under %s is not deterministic: %s differ (memory %x vs %x, sync streams identical)",
		w.Name, opt.Engine, what, r1.HeapHash, r2.HeapHash)
}
