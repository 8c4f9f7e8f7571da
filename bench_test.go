// Benchmarks regenerating each table and figure of the paper's evaluation
// in testing.B form. One benchmark (with sub-benchmarks for the series)
// corresponds to each table and figure; `lazydet-bench` produces the
// full formatted sweeps, while these provide repeatable, -benchmem-able
// measurements of the same code paths.
package lazydet_test

import (
	"fmt"
	"testing"

	"lazydet"
	"lazydet/internal/memmodel"
	"lazydet/internal/vheap"
	"lazydet/internal/workloads"
)

const benchThreads = 8

func runOnce(b *testing.B, w *lazydet.Workload, opt lazydet.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := lazydet.Run(w, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func htCfg(variant workloads.HTVariant) workloads.HTConfig {
	cfg := workloads.DefaultHTConfig(variant)
	cfg.OpsPerThread = 100
	return cfg
}

// BenchmarkFigure1_EagerHashTable measures the motivating experiment: the
// ht microbenchmark under the three eager systems (Figure 1).
func BenchmarkFigure1_EagerHashTable(b *testing.B) {
	w := workloads.NewHashTable(htCfg(workloads.HT))
	for _, eng := range []lazydet.EngineKind{
		lazydet.Pthreads, lazydet.Consequence, lazydet.TotalOrderWeak, lazydet.TotalOrderWeakNondet,
	} {
		b.Run(eng.String(), func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
		})
	}
}

// BenchmarkFigure7_HashTableSweep measures both hash-table variants under
// every system (Figure 7's panels at their default sweep point).
func BenchmarkFigure7_HashTableSweep(b *testing.B) {
	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		w := workloads.NewHashTable(htCfg(variant))
		for _, eng := range []lazydet.EngineKind{
			lazydet.Pthreads, lazydet.Consequence, lazydet.TotalOrderWeak,
			lazydet.TotalOrderWeakNondet, lazydet.LazyDet,
		} {
			b.Run(fmt.Sprintf("%s/%s", variant, eng), func(b *testing.B) {
				runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
			})
		}
	}
}

// BenchmarkHTAllocs measures the allocation behavior of the strong
// deterministic engines on both hash-table variants (run with -benchmem).
// The flat page tables and frame/page pools target exactly this path: after
// per-run setup, sync epochs should draw every dirty-page frame and
// published page version from a pool rather than the allocator.
func BenchmarkHTAllocs(b *testing.B) {
	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		w := workloads.NewHashTable(htCfg(variant))
		for _, eng := range []lazydet.EngineKind{lazydet.Consequence, lazydet.LazyDet} {
			b.Run(fmt.Sprintf("%s/%s", variant, eng), func(b *testing.B) {
				b.ReportAllocs()
				runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
			})
		}
	}
}

// BenchmarkTable1_LockStatistics measures the instrumented pthreads runs
// that produce Table 1's lock statistics.
func BenchmarkTable1_LockStatistics(b *testing.B) {
	for _, name := range []string{"barnes", "ferret", "dedup", "blackscholes"} {
		w := workloads.ByName(name).New(1)
		b.Run(name, func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: lazydet.Pthreads, Threads: benchThreads, CountLocks: true})
		})
	}
}

// BenchmarkFigure8_Applications measures the lock-based application group
// under eager and lazy determinism (Figure 8's headline comparison).
func BenchmarkFigure8_Applications(b *testing.B) {
	for _, name := range []string{
		"barnes", "ocean_cp", "ferret", "water_nsquared",
		"reverse_index", "water_spatial", "dedup", "radix",
	} {
		w := workloads.ByName(name).New(1)
		for _, eng := range []lazydet.EngineKind{lazydet.Pthreads, lazydet.Consequence, lazydet.LazyDet} {
			b.Run(fmt.Sprintf("%s/%s", name, eng), func(b *testing.B) {
				runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
			})
		}
	}
}

// BenchmarkFigure9_Scalability measures LazyDet and Consequence across
// thread counts on ferret (Figure 9's most discussed series).
func BenchmarkFigure9_Scalability(b *testing.B) {
	w := workloads.ByName("ferret").New(1)
	for _, threads := range []int{2, 8, 16} {
		for _, eng := range []lazydet.EngineKind{lazydet.Consequence, lazydet.LazyDet} {
			b.Run(fmt.Sprintf("%s/threads-%d", eng, threads), func(b *testing.B) {
				runOnce(b, w, lazydet.Options{Engine: eng, Threads: threads})
			})
		}
	}
}

// BenchmarkFigure10_Utilization measures runs with blocked-time accounting
// enabled, the instrumentation behind Figure 10.
func BenchmarkFigure10_Utilization(b *testing.B) {
	w := workloads.ByName("water_nsquared").New(1)
	for _, eng := range []lazydet.EngineKind{lazydet.Consequence, lazydet.LazyDet} {
		b.Run(eng.String(), func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads, MeasureTimes: true})
		})
	}
}

// BenchmarkFigure11_Ablations measures LazyDet with each speculation
// feature disabled, on ferret (Figure 11's strongest effects).
func BenchmarkFigure11_Ablations(b *testing.B) {
	w := workloads.ByName("ferret").New(1)
	variants := map[string]func(*lazydet.SpecConfig){
		"Full":           func(*lazydet.SpecConfig) {},
		"NoCoarsening":   func(s *lazydet.SpecConfig) { s.NoCoarsening = true },
		"NoIrrevocable":  func(s *lazydet.SpecConfig) { s.NoIrrevocable = true },
		"NoPerLockStats": func(s *lazydet.SpecConfig) { s.NoPerLockStats = true },
	}
	for _, name := range []string{"Full", "NoCoarsening", "NoIrrevocable", "NoPerLockStats"} {
		var sc lazydet.SpecConfig
		variants[name](&sc)
		b.Run(name, func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: lazydet.LazyDet, Threads: benchThreads, Spec: sc})
		})
	}
}

// BenchmarkTable2_SpeculationStats measures LazyDet runs with speculation
// statistics collection, the instrumentation behind Table 2.
func BenchmarkTable2_SpeculationStats(b *testing.B) {
	for _, name := range []string{"barnes", "ferret", "dedup"} {
		w := workloads.ByName(name).New(1)
		b.Run(name, func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: lazydet.LazyDet, Threads: benchThreads, CollectSpec: true})
		})
	}
}

// BenchmarkFigure12_RevertCost measures a conflict-heavy configuration
// that exercises the revert path whose cost Figure 12 characterizes.
func BenchmarkFigure12_RevertCost(b *testing.B) {
	cfg := htCfg(workloads.HT)
	cfg.MaxObjects = 512 // small table: frequent conflicts, frequent reverts
	w := workloads.NewHashTable(cfg)
	b.Run("contended-ht", func(b *testing.B) {
		runOnce(b, w, lazydet.Options{Engine: lazydet.LazyDet, Threads: benchThreads, CollectSpec: true})
	})
}

// BenchmarkFigures4to6_MemoryModels measures the litmus-outcome
// enumeration behind the consistency-model comparison (Figures 4–6).
func BenchmarkFigures4to6_MemoryModels(b *testing.B) {
	p := memmodel.Figure4()
	b.Run("TSO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memmodel.TSO(p)
		}
	})
	b.Run("DLRC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memmodel.DLRC(p)
		}
	})
	b.Run("DDRF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memmodel.DDRF(p)
		}
	})
}

// BenchmarkSection42_VersionRetention measures the §4.2 time claim: commits
// against a DDRF-style coalescing version list, which trims every chain to
// the versions a live view can still read.
func BenchmarkSection42_VersionRetention(b *testing.B) {
	b.Run("DDRF-coalesced", func(b *testing.B) {
		h := vheap.New(1 << 14)
		v := h.NewView()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Store(int64(i%(1<<14)), int64(i))
			v.Commit()
		}
	})
}

// BenchmarkExtension_LinkedList measures the lock-coupling sorted list
// under eager and lazy determinism.
func BenchmarkExtension_LinkedList(b *testing.B) {
	w := workloads.NewLinkedList(workloads.DefaultLLConfig())
	for _, eng := range []lazydet.EngineKind{lazydet.Pthreads, lazydet.Consequence, lazydet.LazyDet} {
		b.Run(eng.String(), func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
		})
	}
}

// BenchmarkExtension_BoundedQueue measures the condition-variable pipeline
// (speculation terminates at every condvar operation, paper footnote 2).
func BenchmarkExtension_BoundedQueue(b *testing.B) {
	w := workloads.NewBoundedQueue(40, 4)
	for _, eng := range []lazydet.EngineKind{lazydet.Pthreads, lazydet.Consequence, lazydet.LazyDet} {
		b.Run(eng.String(), func(b *testing.B) {
			runOnce(b, w, lazydet.Options{Engine: eng, Threads: benchThreads})
		})
	}
}
