package randprog

import (
	"testing"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// opcodes flattens the generated per-thread programs to their opcode streams.
func opcodes(w *harness.Workload, threads int) [][]dvm.Opcode {
	progs := w.Programs(threads)
	out := make([][]dvm.Opcode, len(progs))
	for i, p := range progs {
		ops := make([]dvm.Opcode, len(p.Code))
		for j, in := range p.Code {
			ops[j] = in.Op
		}
		out[i] = ops
	}
	return out
}

// TestSeededStability: the generator is a pure function of (seed, config) —
// two calls yield identical expected-memory models and identical opcode
// streams, and the generated workload reproduces trace signature and heap
// hash across independent Consequence runs.
func TestSeededStability(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.OpsPerThread = 40
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		w1, exp1, err := Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w2, exp2, err := Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(exp1) != len(exp2) {
			t.Fatalf("seed %d: expected-model sizes differ: %d vs %d", seed, len(exp1), len(exp2))
		}
		for cell, v1 := range exp1 {
			if v2, ok := exp2[cell]; !ok || v1 != v2 {
				t.Fatalf("seed %d: expected[%d] = %d vs %d", seed, cell, v1, v2)
			}
		}
		ops1, ops2 := opcodes(w1, cfg.Threads), opcodes(w2, cfg.Threads)
		for tid := range ops1 {
			if len(ops1[tid]) != len(ops2[tid]) {
				t.Fatalf("seed %d thread %d: program lengths differ: %d vs %d",
					seed, tid, len(ops1[tid]), len(ops2[tid]))
			}
			for j := range ops1[tid] {
				if ops1[tid][j] != ops2[tid][j] {
					t.Fatalf("seed %d thread %d instr %d: opcode %v vs %v",
						seed, tid, j, ops1[tid][j], ops2[tid][j])
				}
			}
		}
		opt := harness.Options{Engine: harness.Consequence, Threads: cfg.Threads, Trace: true}
		r1, err := harness.Run(w1, opt)
		if err != nil {
			t.Fatalf("seed %d run 1: %v", seed, err)
		}
		r2, err := harness.Run(w2, opt)
		if err != nil {
			t.Fatalf("seed %d run 2: %v", seed, err)
		}
		if r1.TraceSig != r2.TraceSig || r1.HeapHash != r2.HeapHash {
			t.Fatalf("seed %d: same seed diverged (trace %x/%x heap %x/%x)",
				seed, r1.TraceSig, r2.TraceSig, r1.HeapHash, r2.HeapHash)
		}
	}
}

// TestSeedsDiffer: distinct seeds actually produce distinct programs.
func TestSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig(2)
	_, exp1, err := Generate(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, exp2, err := Generate(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(exp1) == len(exp2)
	if same {
		for cell, v := range exp1 {
			if exp2[cell] != v {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 generated identical expected models")
	}
}

// TestConfigRejection: malformed configurations return errors instead of
// generating broken programs.
func TestConfigRejection(t *testing.T) {
	base := DefaultConfig(4)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-threads", func(c *Config) { c.Threads = 0 }},
		{"one-cell", func(c *Config) { c.Cells = 1 }},
		{"no-atomic-cells", func(c *Config) { c.AtomicCells = 0 }},
		{"negative-ops", func(c *Config) { c.OpsPerThread = -1 }},
		{"negative-barriers", func(c *Config) { c.MaxBarriers = -1 }},
		{"negative-streak", func(c *Config) { c.OwnStreak = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, _, err := Generate(1, cfg); err == nil {
			t.Errorf("%s: Generate accepted invalid config %+v", tc.name, cfg)
		}
	}
}

// countOps tallies opcode occurrences across every thread's program.
func countOps(w *harness.Workload, threads int) map[dvm.Opcode]int {
	n := map[dvm.Opcode]int{}
	for _, ops := range opcodes(w, threads) {
		for _, op := range ops {
			n[op]++
		}
	}
	return n
}

// TestOpCoverage: the default configuration emits the rwlock, syscall and
// condvar operations the hardened generator exists to cover, and disabling
// each class removes it.
func TestOpCoverage(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.OpsPerThread = 200 // enough draws to hit every op-kind case
	var seed uint64 = 3

	w, _, err := Generate(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := countOps(w, cfg.Threads)
	for _, op := range []dvm.Opcode{dvm.OpLock, dvm.OpRLock, dvm.OpSyscall, dvm.OpCondWait, dvm.OpAtomic} {
		if n[op] == 0 {
			t.Errorf("default config, seed %d: no %v emitted (counts %v)", seed, op, n)
		}
	}

	cfg.WithRWLocks, cfg.WithSyscalls, cfg.WithCondvars = false, false, false
	w, _, err = Generate(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n = countOps(w, cfg.Threads)
	for _, op := range []dvm.Opcode{dvm.OpRLock, dvm.OpSyscall, dvm.OpCondWait, dvm.OpCondSignal} {
		if n[op] != 0 {
			t.Errorf("all classes disabled, seed %d: %d %v emitted", seed, n[op], op)
		}
	}
}

// TestExclusiveSectionShapes: the default mix emits the two exclusive-section
// shapes whose conflicts depend on stores — an outermost section that stores
// nothing, and an outer section that only reads around an inner section that
// stores — on threads other than the condvar leader, whose rendezvous check
// is the only read-only section the mix had before.
func TestExclusiveSectionShapes(t *testing.T) {
	cfg := DefaultConfig(4)
	w, _, err := Generate(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	readOnly, readAroundStore := 0, 0
	for tid, ops := range opcodes(w, cfg.Threads) {
		if tid == 0 {
			continue
		}
		// stored[d] records a store at nesting depth d or deeper, since the
		// depth-d section began.
		var stored []bool
		for j, op := range ops {
			switch op {
			case dvm.OpLock:
				if len(stored) == 1 && !stored[0] && ops[j-1] == dvm.OpLoad {
					readAroundStore++ // inner lock after a read-only prefix
				}
				stored = append(stored, false)
			case dvm.OpStore:
				for d := range stored {
					stored[d] = true
				}
			case dvm.OpUnlock:
				if len(stored) == 1 && !stored[0] {
					readOnly++
				}
				stored = stored[:len(stored)-1]
			}
		}
	}
	if readOnly == 0 || readAroundStore == 0 {
		t.Fatalf("%d read-only exclusive sections and %d read-around-store pairs, want both > 0", readOnly, readAroundStore)
	}
}

// TestExpectedModelMatchesEveryEngine: one generated workload satisfies its
// own model under all five engines (the fuzzer's property 1, pinned as a
// test).
func TestExpectedModelMatchesEveryEngine(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.OpsPerThread = 30
	w, _, err := Generate(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range harness.AllEngines {
		if _, err := harness.Run(w, harness.Options{Engine: eng, Threads: cfg.Threads}); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}
}

// TestOwnStreak: a streak adds exactly OwnStreak critical sections per thread
// and leaves the seed's other operations what they were; the model still holds
// under every engine; and at MinExtendingStreak LazyDet provably runs past
// the coarsening floor — the state the streak exists to reach.
func TestOwnStreak(t *testing.T) {
	cfg := DefaultConfig(4)
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		plain, expPlain, err := Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		long := cfg
		long.OwnStreak = MinExtendingStreak
		w, exp, err := Generate(seed, long)
		if err != nil {
			t.Fatal(err)
		}
		for cell, want := range expPlain {
			if exp[cell] != want {
				t.Fatalf("seed %d: the streak changed cell %d's expected value %d to %d", seed, cell, want, exp[cell])
			}
		}
		was, now := countOps(plain, cfg.Threads), countOps(w, cfg.Threads)
		for _, op := range []dvm.Opcode{dvm.OpLock, dvm.OpUnlock, dvm.OpRLock, dvm.OpSyscall, dvm.OpAtomic, dvm.OpBarrier} {
			want := was[op]
			if op == dvm.OpLock || op == dvm.OpUnlock {
				want += cfg.Threads * long.OwnStreak
			}
			if now[op] != want {
				t.Errorf("seed %d: %d %v with the streak, want %d", seed, now[op], op, want)
			}
		}
		for _, eng := range harness.AllEngines {
			res, err := harness.Run(w, harness.Options{Engine: eng, Threads: cfg.Threads, CollectSpec: eng == harness.LazyDet})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, eng, err)
			}
			if eng == harness.LazyDet && res.Spec.ExtendedRuns.Load() == 0 {
				t.Errorf("seed %d: no LazyDet run went past the floor in %d-section streaks", seed, long.OwnStreak)
			}
		}
	}
}
