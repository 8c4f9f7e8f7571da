package lazydet_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lazydet"
)

// counter builds a one-lock counter workload through the public API.
func counter(iters int64) *lazydet.Workload {
	return &lazydet.Workload{
		Name:      "api-counter",
		HeapWords: 8,
		Locks:     1,
		Programs: func(threads int) []*lazydet.Program {
			b := lazydet.NewProgram("counter")
			i, v := b.Reg(), b.Reg()
			b.ForN(i, iters, func() {
				b.Lock(lazydet.Const(0))
				b.Load(v, lazydet.Const(0))
				b.Store(lazydet.Const(0), lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(v) + 1 }))
				b.Unlock(lazydet.Const(0))
			})
			p := b.Build()
			progs := make([]*lazydet.Program, threads)
			for t := range progs {
				progs[t] = p
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			if got, want := read(0), int64(threads)*iters; got != want {
				return fmt.Errorf("counter = %d, want %d", got, want)
			}
			return nil
		},
	}
}

func TestPublicAPIRunAllEngines(t *testing.T) {
	w := counter(100)
	for _, eng := range []lazydet.EngineKind{
		lazydet.Pthreads, lazydet.Consequence, lazydet.TotalOrderWeak,
		lazydet.TotalOrderWeakNondet, lazydet.LazyDet,
	} {
		res, err := lazydet.Run(w, lazydet.Options{Engine: eng, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.Wall <= 0 {
			t.Fatalf("%s: no wall time measured", eng)
		}
	}
}

func TestPublicAPIVerify(t *testing.T) {
	w := counter(150)
	for _, eng := range []lazydet.EngineKind{lazydet.Consequence, lazydet.LazyDet} {
		if err := lazydet.Verify(w, lazydet.Options{Engine: eng, Threads: 4}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
}

// flaky builds a workload whose Programs closure changes between calls —
// the run1 thread locks lock 0 and writes cell 0, the run2 thread locks
// lock 1 and writes cell 1 — so Verify's two runs must diverge in sync order.
func flaky() *lazydet.Workload {
	calls := 0
	return &lazydet.Workload{
		Name: "api-flaky", HeapWords: 8, Locks: 2,
		Programs: func(threads int) []*lazydet.Program {
			calls++
			lock := int64(0)
			if calls > 1 {
				lock = 1
			}
			progs := make([]*lazydet.Program, threads)
			for tid := range progs {
				b := lazydet.NewProgram("flaky")
				b.Lock(lazydet.Const(lock))
				b.Store(lazydet.Const(lock), lazydet.Const(7))
				b.Unlock(lazydet.Const(lock))
				progs[tid] = b.Build()
			}
			return progs
		},
	}
}

// TestPublicAPIVerifyNamesDivergence: when the two runs disagree, Verify's
// error names the first diverging synchronization event — thread, event
// index and the mismatched operations — not just hash values.
func TestPublicAPIVerifyNamesDivergence(t *testing.T) {
	err := lazydet.Verify(flaky(), lazydet.Options{Engine: lazydet.Consequence, Threads: 2})
	if err == nil {
		t.Fatal("Verify accepted a workload whose runs diverge")
	}
	for _, want := range []string{"not deterministic", "first divergence", "thread 0, event 0", "acquire(0)", "acquire(1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Verify error %q does not contain %q", err, want)
		}
	}
}

// TestPublicAPIVerifyValueDivergence: when only the written values differ —
// identical sync streams — Verify reports a memory divergence and says the
// sync streams matched, pointing at a value rather than an order bug.
func TestPublicAPIVerifyValueDivergence(t *testing.T) {
	calls := 0
	w := &lazydet.Workload{
		Name: "api-value-flaky", HeapWords: 8, Locks: 1,
		Programs: func(threads int) []*lazydet.Program {
			calls++
			val := int64(calls) // differs between Verify's two runs
			progs := make([]*lazydet.Program, threads)
			for tid := range progs {
				b := lazydet.NewProgram("value-flaky")
				b.Lock(lazydet.Const(0))
				b.Store(lazydet.Const(0), lazydet.Const(val))
				b.Unlock(lazydet.Const(0))
				progs[tid] = b.Build()
			}
			return progs
		},
	}
	err := lazydet.Verify(w, lazydet.Options{Engine: lazydet.Consequence, Threads: 2})
	if err == nil {
		t.Fatal("Verify accepted a workload whose final memory diverges")
	}
	for _, want := range []string{"final memory", "sync streams identical"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Verify error %q does not contain %q", err, want)
		}
	}
}

// TestPublicAPIInvariantOptions: the invariant audit layer is reachable
// through the public Options, and a clean run reports nothing (a violation
// would be Run's error).
func TestPublicAPIInvariantOptions(t *testing.T) {
	w := counter(100)
	for _, eng := range []lazydet.EngineKind{lazydet.Consequence, lazydet.LazyDet} {
		_, err := lazydet.Run(w, lazydet.Options{Engine: eng, Threads: 4, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
}

func TestPublicAPISpecConfig(t *testing.T) {
	var sc lazydet.SpecConfig
	if n := reflect.TypeOf(sc).NumField(); n != 3 {
		t.Fatalf("SpecConfig has %d fields, want 3: Figure 11's ablations; the threshold and the coarsening floor are policy constants", n)
	}
	if n := reflect.TypeOf(lazydet.Options{}).NumField(); n != 12 {
		t.Fatalf("Options has %d fields, want 12: a field stays only if a caller must choose it", n)
	}
	sc.NoCoarsening = true
	w := counter(100)
	res, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.LazyDet, Threads: 2, Spec: sc, CollectSpec: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Spec.MeanRunCS(); m > 1.01 {
		t.Fatalf("NoCoarsening via public API not applied: %.2f CS/run", m)
	}
}

func TestPublicAPIEngineNames(t *testing.T) {
	names := []string{
		lazydet.Pthreads.String(), lazydet.Consequence.String(),
		lazydet.TotalOrderWeak.String(), lazydet.TotalOrderWeakNondet.String(),
		lazydet.LazyDet.String(),
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"pthreads", "Consequence", "TotalOrder-Weak", "LazyDet"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("engine names %q missing %q", joined, want)
		}
	}
}

func TestPublicAPISyscallAndAtomic(t *testing.T) {
	ran := 0
	w := &lazydet.Workload{
		Name: "api-sys", HeapWords: 8, Locks: 1,
		Programs: func(threads int) []*lazydet.Program {
			progs := make([]*lazydet.Program, threads)
			for tid := 0; tid < threads; tid++ {
				b := lazydet.NewProgram("sys")
				r := b.Reg()
				b.Lock(lazydet.Const(0))
				b.Syscall(&lazydet.Syscall{Name: "probe", Work: 5, Effect: func(*lazydet.Thread) { ran++ }})
				b.Unlock(lazydet.Const(0))
				b.AtomicAdd(r, lazydet.Const(1), lazydet.Const(1))
				progs[tid] = b.Build()
			}
			return progs
		},
		Validate: func(read func(int64) int64, threads int) error {
			if got := read(1); got != int64(threads) {
				return fmt.Errorf("atomic counter = %d, want %d", got, threads)
			}
			return nil
		},
	}
	res, err := lazydet.Run(w, lazydet.Options{Engine: lazydet.LazyDet, Threads: 3, CollectSpec: true})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("syscall effects ran %d times, want 3", ran)
	}
	if res.Spec.Upgrades.Load() == 0 {
		t.Fatal("syscalls under locks should upgrade speculation runs")
	}
}
