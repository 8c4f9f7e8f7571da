// Command lazydet-fuzz differentially stress-tests the engines: it
// generates random data-race-free commutative programs (whose final memory
// is schedule-independent and predicted on the host), runs each under every
// engine, and checks properties 1-6 and 9 per seed (the numbers are stable
// names other documents cite; retired properties 7 and 8 leave a gap):
//
//  1. correctness — every engine's final memory matches the model exactly;
//
//  2. determinism — Consequence, TotalOrder-Weak and LazyDet reproduce
//     identical trace signatures and memory across repeated runs, and so
//     does LazyDet with write-aware conflict detection;
//
//  3. speculation accounting — LazyDet's commits + reverts equal its run
//     count;
//
//  4. (with -invariants) runtime invariants — turn-holder uniqueness, heap
//     commit monotonicity, lock-table consistency and snapshot round-trip
//     exactness hold at every turn grant and commit/revert;
//
//  5. (with -vet, on by default) no analyzer false positives — the static
//     analyzer (internal/progcheck) reports zero error findings on these
//     race-free, deadlock-free programs; warnings are tallied and the rate
//     reported;
//
//  6. (with -vet) no analyzer soundness hole — after a known bug is seeded
//     into a copy (the final halt is prefixed with a lock acquisition that
//     is never released) the analyzer flags it;
//
//  9. static speculation hints — LazyDet also runs with the static hints
//     (harness.Options.SpecHints): the hinted run is deterministic, its
//     final memory is bit-identical to the unhinted run's (hints steer
//     speculation, never committed state), and every lock the footprint
//     analysis proved Disjoint observes zero conflict-attributed reverts —
//     if a "can never fail validation" lock reverts even once, the static
//     proof is unsound.
//
// -streak splices a run of critical sections on locks no other thread takes
// into every thread's program (randprog.Config.OwnStreak). From
// randprog.MinExtendingStreak sections on, every LazyDet thread earns runs
// longer than the coarsening floor inside its streak and meets the random
// operations after it in that state; a seed whose plain LazyDet run then
// reports no extended run (spec.extended_runs) fails.
//
//	lazydet-fuzz -seeds 100 -threads 4
//	lazydet-fuzz -seeds 1000 -ops 120 -start 42
//	lazydet-fuzz -seeds 5 -threads 256 -ops 8 -invariants
//	lazydet-fuzz -seeds 10 -streak 600 -invariants
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"lazydet/internal/core"
	"lazydet/internal/dvm"
	"lazydet/internal/harness"
	"lazydet/internal/invariant"
	"lazydet/internal/progcheck"
	"lazydet/internal/randprog"
)

// seedHeldLockBug returns a copy of p with a deliberate lock-discipline bug:
// the trailing halt is prefixed with an acquisition of lock 0 that is never
// released, so every execution exits holding it. Used to cross-check that
// the static analyzer still catches a bug it is specified to catch.
func seedHeldLockBug(p *dvm.Program) *dvm.Program {
	n := len(p.Code)
	if n == 0 || p.Code[n-1].Op != dvm.OpHalt {
		return nil
	}
	code := make([]dvm.Instr, n+1)
	copy(code, p.Code)
	code[n-1] = dvm.Instr{
		Op:    dvm.OpLock,
		Cost:  1,
		Addr:  func(*dvm.Thread) int64 { return 0 },
		SAddr: dvm.SVal{Known: true, K: 0},
	}
	code[n] = dvm.Instr{Op: dvm.OpHalt, Cost: 1}
	mut := *p
	mut.Name = p.Name + "+held-lock-bug"
	mut.Code = code
	return &mut
}

func hasClass(rep *progcheck.Report, class progcheck.Class) bool {
	for _, f := range rep.Findings {
		if f.Class == class {
			return true
		}
	}
	return false
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code: 0 when every seed
// passes, 1 when any fails, 2 on a usage error.
func run(args []string) int {
	fs := flag.NewFlagSet("lazydet-fuzz", flag.ContinueOnError)
	seeds := fs.Int("seeds", 50, "number of random programs")
	start := fs.Uint64("start", 1, "first seed")
	threads := fs.Int("threads", 4, "simulated thread count")
	ops := fs.Int("ops", 60, "operations per thread")
	streak := fs.Int("streak", 0, "critical sections on thread-owned locks spliced into every thread's program (from randprog.MinExtendingStreak on, LazyDet must extend runs past the floor)")
	invariants := fs.Bool("invariants", false, "audit runtime invariants at every turn and commit/revert")
	vet := fs.Bool("vet", true, "cross-check progcheck static verdicts against runtime outcomes")
	verbose := fs.Bool("v", false, "print every seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := randprog.DefaultConfig(*threads)
	cfg.OpsPerThread = *ops
	cfg.OwnStreak = *streak

	failures := 0
	var extendedRuns int64
	vetSeeds, vetFalseWarnings := 0, 0
	for s := uint64(0); s < uint64(*seeds); s++ {
		seed := *start + s
		w, _, err := randprog.Generate(seed, cfg)
		if err != nil {
			fmt.Printf("seed %d: generator failed: %v\n", seed, err)
			failures++
			continue
		}
		ok := true
		var violations []*invariant.Violation
		baseOpt := harness.Options{Threads: *threads}
		if *invariants {
			baseOpt.CheckInvariants = true
			baseOpt.OnViolation = func(v *invariant.Violation) { violations = append(violations, v) }
		}

		// Properties 5 and 6: static/runtime cross-check. The generator
		// emits race-free, deadlock-free programs, so (5) every progcheck
		// finding on them is a false positive — errors fail the seed,
		// warnings only feed the rate printed at the end — and (6) seeding
		// a lock-held-at-exit bug into a copy must produce exactly that
		// finding, or the analyzer has a soundness hole.
		if *vet {
			progs := w.Programs(*threads)
			rep := progcheck.Check(progs)
			if n := rep.CountBySeverity(progcheck.SevError); n > 0 {
				fmt.Printf("seed %d: progcheck false positive: %d error finding(s) on a race-free program:\n%s",
					seed, n, rep.Human())
				ok = false
			}
			vetFalseWarnings += rep.CountBySeverity(progcheck.SevWarn)
			vetSeeds++
			if mut := seedHeldLockBug(progs[0]); mut == nil {
				fmt.Printf("seed %d: progcheck cross-check: generated program does not end in halt\n", seed)
				ok = false
			} else if mrep := progcheck.Check([]*dvm.Program{mut}); !hasClass(mrep, progcheck.ClassHeldAtExit) {
				fmt.Printf("seed %d: progcheck MISSED a seeded %s bug in %s\n",
					seed, progcheck.ClassHeldAtExit, mut.Name)
				ok = false
			}
		}

		// Property 1: model equivalence under every engine.
		for _, eng := range harness.AllEngines {
			opt := baseOpt
			opt.Engine = eng
			if _, err := harness.Run(w, opt); err != nil {
				fmt.Printf("seed %d: %s: %v\n", seed, eng, err)
				ok = false
			}
		}
		// Properties 2 and 3: determinism + speculation accounting, for
		// the deterministic engines plus LazyDet's write-aware variant.
		type variant struct {
			name       string
			engine     harness.EngineKind
			writeAware bool
			hints      bool
		}
		variants := []variant{
			{"Consequence", harness.Consequence, false, false},
			{"TotalOrder-Weak", harness.TotalOrderWeak, false, false},
			{"LazyDet", harness.LazyDet, false, false},
			{"LazyDet-WriteAware", harness.LazyDet, true, false},
			{"LazyDet-Hints", harness.LazyDet, false, true},
		}
		var lazyRef *harness.Result // the unhinted LazyDet run, property 9's oracle
		for _, va := range variants {
			opt := baseOpt
			opt.Engine = va.engine
			opt.Trace = true
			opt.CollectSpec = va.engine == harness.LazyDet
			opt.SpecHints = va.hints
			if va.writeAware {
				opt.Spec = core.DefaultSpecConfig()
				opt.Spec.WriteAware = true
			}
			r1, err1 := harness.Run(w, opt)
			r2, err2 := harness.Run(w, opt)
			if err1 != nil || err2 != nil {
				fmt.Printf("seed %d: %s: %v %v\n", seed, va.name, err1, err2)
				ok = false
				continue
			}
			if r1.TraceSig != r2.TraceSig || r1.HeapHash != r2.HeapHash {
				fmt.Printf("seed %d: %s NOT DETERMINISTIC (trace %x/%x heap %x/%x)\n",
					seed, va.name, r1.TraceSig, r2.TraceSig, r1.HeapHash, r2.HeapHash)
				ok = false
			}
			if r1.Spec != nil {
				runs, commits, reverts := r1.Spec.Runs.Load(), r1.Spec.Commits.Load(), r1.Spec.Reverts.Load()
				if commits+reverts != runs {
					fmt.Printf("seed %d: %s speculation accounting broken: %d commits + %d reverts != %d runs\n",
						seed, va.name, commits, reverts, runs)
					ok = false
				}
			}
			if va.name == "LazyDet" {
				lazyRef = r1
				n := r1.Spec.ExtendedRuns.Load()
				extendedRuns += n
				if *streak >= randprog.MinExtendingStreak && n == 0 {
					fmt.Printf("seed %d: no LazyDet run went past the floor although every thread has a %d-section own-lock streak\n", seed, *streak)
					ok = false
				}
			}
			// Property 9: static speculation hints. The hinted schedule may
			// differ (hints change when the engine speculates), but the
			// committed state may not — the generator's programs have
			// schedule-independent finals — and a statically Disjoint lock
			// must never be charged a conflict revert.
			if va.hints {
				if lazyRef != nil && r1.HeapHash != lazyRef.HeapHash {
					fmt.Printf("seed %d: hinted LazyDet heap %x != unhinted %x\n",
						seed, r1.HeapHash, lazyRef.HeapHash)
					ok = false
				}
				if r1.Hints == nil {
					fmt.Printf("seed %d: SpecHints requested but no verdict table on the result\n", seed)
					ok = false
				} else {
					for _, l := range r1.Hints.Locks() {
						if r1.Hints.Verdicts[l] != progcheck.VerdictDisjoint {
							continue
						}
						if l < int64(len(r1.LockReverts)) && r1.LockReverts[l] != 0 {
							fmt.Printf("seed %d: statically Disjoint lock %d charged %d conflict revert(s): %s\n",
								seed, l, r1.LockReverts[l], r1.Hints.Reasons[l])
							ok = false
						}
					}
				}
			}
		}
		// Property 4: zero invariant violations across all of the above.
		for _, v := range violations {
			fmt.Printf("seed %d: %v\n", seed, v)
			ok = false
		}
		if !ok {
			failures++
		} else if *verbose {
			fmt.Printf("seed %d ok\n", seed)
		}
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d of %d seeds\n", failures, *seeds)
		return 1
	}
	suffix := ""
	if *invariants {
		suffix = ", zero invariant violations"
	}
	if *streak > 0 {
		suffix += fmt.Sprintf("; %d LazyDet runs extended past the floor", extendedRuns)
	}
	if vetSeeds > 0 {
		suffix += fmt.Sprintf("; progcheck: %d seeds cross-checked, %d warning false positive(s)", vetSeeds, vetFalseWarnings)
	}
	fmt.Printf("ok: %d seeds × %d engines, all equivalent and deterministic%s\n", *seeds, len(harness.AllEngines), suffix)
	return 0
}
