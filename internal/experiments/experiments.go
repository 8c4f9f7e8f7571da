// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the hash-table microbenchmark sweeps (Figures 1 and 7),
// the lock-statistics and speculation-statistics tables (Tables 1 and 2),
// the application comparisons (Figures 8–11), and the revert-cost scatter
// (Figure 12). Each function prints the same rows or series the paper
// reports, measured on this machine.
package experiments

import (
	"fmt"
	"io"

	"lazydet/internal/core"
	"lazydet/internal/harness"
	"lazydet/internal/stats"
	"lazydet/internal/workloads"
)

// Config controls an experiment run.
type Config struct {
	Out io.Writer
	// Reps is the number of repetitions per data point (the paper uses
	// 5); the mean is reported, with the standard deviation where the
	// paper shows error bars.
	Reps int
	// Threads overrides an experiment's default thread count when > 0.
	Threads int
	// Scale scales workload problem sizes (1 = default).
	Scale int
	// Quick shrinks sweeps for fast smoke runs.
	Quick bool
	// CSVDir, when set, additionally writes each experiment's rows as
	// <CSVDir>/<experiment>.csv for re-plotting.
	CSVDir string
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// measure runs the workload reps times and returns mean and stddev wall
// times in seconds.
func measure(w *harness.Workload, opt harness.Options, reps int) (mean, std float64, last *harness.Result, err error) {
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		res, e := harness.Run(w, opt)
		if e != nil {
			return 0, 0, nil, e
		}
		times = append(times, res.Wall.Seconds())
		last = res
	}
	return stats.Mean(times), stats.Stddev(times), last, nil
}

// slowdownRow measures one workload under a set of engines and returns each
// engine's runtime normalized to the pthreads engine.
func slowdownRow(w *harness.Workload, threads, reps int, engines []harness.EngineKind) (base float64, slows []float64, err error) {
	base, _, _, err = measure(w, harness.Options{Engine: harness.Pthreads, Threads: threads}, reps)
	if err != nil {
		return 0, nil, err
	}
	for _, e := range engines {
		m, _, _, err := measure(w, harness.Options{Engine: e, Threads: threads}, reps)
		if err != nil {
			return 0, nil, err
		}
		slows = append(slows, m/base)
	}
	return base, slows, nil
}

// Fig1 reproduces Figure 1: the motivating hash-table experiment. The
// paper's Consequence-Weak and Consequence-Weak-Nondet are this
// repository's TotalOrder-Weak and TotalOrder-Weak-Nondet engines.
func Fig1(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 32
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	sizes := []int{512, 1024, 2048, 4096, 8192, 16384}
	if cfg.Quick {
		sizes = []int{512, 4096}
	}
	engines := []harness.EngineKind{harness.Consequence, harness.TotalOrderWeak, harness.TotalOrderWeakNondet}

	cfg.printf("Figure 1: hash table (ht) slowdown vs pthreads, %d threads\n", threads)
	cfg.printf("%-12s %12s %18s %24s\n", "max objects", "Consequence", "Consequence-Weak", "Consequence-Weak-Nondet")
	csvf, err := cfg.csvFile("fig1", "max_objects", "consequence_x", "weak_x", "weak_nondet_x")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, size := range sizes {
		ht := workloads.DefaultHTConfig(workloads.HT)
		ht.MaxObjects = size
		w := workloads.NewHashTable(ht)
		_, slows, err := slowdownRow(w, threads, cfg.Reps, engines)
		if err != nil {
			return err
		}
		cfg.printf("%-12d %11.1fx %17.1fx %23.1fx\n", size, slows[0], slows[1], slows[2])
		csvf.row(size, slows[0], slows[1], slows[2])
	}
	return nil
}

// Fig7 reproduces Figure 7: six panels sweeping table size, load factor and
// update percentage for the ht and htLazy variants under all five systems.
func Fig7(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 32
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	engines := []harness.EngineKind{
		harness.Consequence, harness.TotalOrderWeak, harness.TotalOrderWeakNondet, harness.LazyDet,
	}

	sizes := []int{512, 2048, 8192, 16384}
	factors := []int{1, 2, 4, 8}
	updates := []int{0, 10, 50, 100}
	if cfg.Quick {
		sizes = []int{512, 8192}
		factors = []int{1, 8}
		updates = []int{10, 100}
	}

	csvf, err := cfg.csvFile("fig7", "variant", "axis", "value", "consequence_x", "weak_x", "weak_nondet_x", "lazydet_x")
	if err != nil {
		return err
	}
	defer csvf.close()
	panel := func(variant workloads.HTVariant, axis string, vals []int, mk func(v int) workloads.HTConfig) error {
		cfg.printf("\nFigure 7 [%s, sweep %s]: slowdown vs pthreads, %d threads\n", variant, axis, threads)
		cfg.printf("%-10s %12s %16s %23s %9s\n", axis, "Consequence", "TotalOrder-Weak", "TotalOrder-Weak-Nondet", "LazyDet")
		for _, v := range vals {
			w := workloads.NewHashTable(mk(v))
			_, slows, err := slowdownRow(w, threads, cfg.Reps, engines)
			if err != nil {
				return err
			}
			cfg.printf("%-10d %11.1fx %15.1fx %22.1fx %8.1fx\n", v, slows[0], slows[1], slows[2], slows[3])
			csvf.row(string(variant), axis, v, slows[0], slows[1], slows[2], slows[3])
		}
		return nil
	}

	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		variant := variant
		if err := panel(variant, "size", sizes, func(v int) workloads.HTConfig {
			c := workloads.DefaultHTConfig(variant)
			c.MaxObjects = v
			return c
		}); err != nil {
			return err
		}
		if err := panel(variant, "load-factor", factors, func(v int) workloads.HTConfig {
			c := workloads.DefaultHTConfig(variant)
			c.LoadFactor = v
			return c
		}); err != nil {
			return err
		}
		if err := panel(variant, "update-pct", updates, func(v int) workloads.HTConfig {
			c := workloads.DefaultHTConfig(variant)
			c.UpdatePct = v
			return c
		}); err != nil {
			return err
		}
	}
	return nil
}

// Table1 reproduces Table 1: lock statistics for every benchmark at 8
// threads under the pthreads engine.
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 8
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	cfg.printf("Table 1: lock statistics, %d threads (pthreads engine)\n", threads)
	cfg.printf("%-18s %9s %12s %6s %6s %6s %6s %12s\n",
		"program", "# locks", "# acquis.", "50th", "75th", "95th", "max", "runtime (s)")
	csvf, err := cfg.csvFile("table1", "program", "locks", "acquisitions", "p50", "p75", "p95", "max", "runtime_s")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, g := range workloads.All() {
		w := g.New(cfg.Scale)
		mean, _, res, err := measure(w, harness.Options{
			Engine: harness.Pthreads, Threads: threads, CountLocks: true,
		}, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		s := res.Counter.Summarize()
		cfg.printf("%-18s %9d %12d %6d %6d %6d %6d %12.4f\n",
			g.Name, s.Variables, s.Acquisitions, s.P50, s.P75, s.P95, s.Max, mean)
		csvf.row(g.Name, s.Variables, s.Acquisitions, s.P50, s.P75, s.P95, s.Max, mean)
	}
	return nil
}

// lockBased returns the benchmarks of Figure 8's left group.
func lockBased() []workloads.Gen {
	var out []workloads.Gen
	for _, g := range workloads.All() {
		if g.LockBased {
			out = append(out, g)
		}
	}
	return out
}

// Fig8 reproduces Figure 8: the best runtime of each system across thread
// counts, normalized to the best pthreads runtime.
func Fig8(cfg Config) error {
	cfg = cfg.withDefaults()
	threadCounts := []int{2, 4, 8}
	if cfg.Quick {
		threadCounts = []int{4}
	}
	engines := []harness.EngineKind{
		harness.Consequence, harness.TotalOrderWeak, harness.TotalOrderWeakNondet, harness.LazyDet,
	}

	best := func(w *harness.Workload, e harness.EngineKind) (float64, error) {
		b := -1.0
		for _, th := range threadCounts {
			m, _, _, err := measure(w, harness.Options{Engine: e, Threads: th}, cfg.Reps)
			if err != nil {
				return 0, err
			}
			if b < 0 || m < b {
				b = m
			}
		}
		return b, nil
	}

	cfg.printf("Figure 8: best runtime normalized to pthreads (threads in %v)\n", threadCounts)
	cfg.printf("%-18s %12s %16s %23s %9s\n", "program", "Consequence", "TotalOrder-Weak", "TotalOrder-Weak-Nondet", "LazyDet")
	csvf, err := cfg.csvFile("fig8", "program", "consequence_x", "weak_x", "weak_nondet_x", "lazydet_x")
	if err != nil {
		return err
	}
	defer csvf.close()
	group := func(gens []workloads.Gen) error {
		for _, g := range gens {
			w := g.New(cfg.Scale)
			base, err := best(w, harness.Pthreads)
			if err != nil {
				return fmt.Errorf("%s: %w", g.Name, err)
			}
			row := make([]float64, len(engines))
			for i, e := range engines {
				m, err := best(w, e)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", g.Name, e, err)
				}
				row[i] = m / base
			}
			cfg.printf("%-18s %11.1fx %15.1fx %22.1fx %8.1fx\n", g.Name, row[0], row[1], row[2], row[3])
			csvf.row(g.Name, row[0], row[1], row[2], row[3])
		}
		return nil
	}
	cfg.printf("-- lock-based group --\n")
	if err := group(lockBased()); err != nil {
		return err
	}
	if !cfg.Quick {
		cfg.printf("-- coarse-grained group --\n")
		var coarse []workloads.Gen
		for _, g := range workloads.All() {
			if !g.LockBased {
				coarse = append(coarse, g)
			}
		}
		if err := group(coarse); err != nil {
			return err
		}
	}
	return nil
}

// Fig9 reproduces Figure 9: runtime vs thread count, normalized to the
// pthreads runtime at the same thread count.
func Fig9(cfg Config) error {
	cfg = cfg.withDefaults()
	threadCounts := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		threadCounts = []int{2, 8}
	}
	names := []string{"barnes", "ocean_cp", "ferret", "water_nsquared", "reverse_index", "dedup"}
	engines := []harness.EngineKind{harness.Consequence, harness.LazyDet}

	cfg.printf("Figure 9: scalability, slowdown vs pthreads at each thread count\n")
	csvf, err := cfg.csvFile("fig9", "program", "threads", "consequence_x", "lazydet_x")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, name := range names {
		g := workloads.ByName(name)
		w := g.New(cfg.Scale)
		cfg.printf("\n%s:\n%-8s %12s %9s\n", name, "threads", "Consequence", "LazyDet")
		for _, th := range threadCounts {
			base, _, _, err := measure(w, harness.Options{Engine: harness.Pthreads, Threads: th}, cfg.Reps)
			if err != nil {
				return err
			}
			row := make([]float64, len(engines))
			for i, e := range engines {
				m, _, _, err := measure(w, harness.Options{Engine: e, Threads: th}, cfg.Reps)
				if err != nil {
					return err
				}
				row[i] = m / base
			}
			cfg.printf("%-8d %11.1fx %8.1fx\n", th, row[0], row[1])
			csvf.row(name, th, row[0], row[1])
		}
	}
	return nil
}

// Fig10 reproduces Figure 10: the CPU-utilization proxy for the lock-based
// programs at 16 threads.
func Fig10(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 16
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	engines := []harness.EngineKind{
		harness.Pthreads, harness.Consequence, harness.TotalOrderWeak, harness.TotalOrderWeakNondet, harness.LazyDet,
	}
	cfg.printf("Figure 10: CPU utilization (%% of machine; thread blocked %% in parens), %d threads\n", threads)
	cfg.printf("%-18s %16s %18s %20s %24s %16s\n", "program", "pthreads", "Consequence", "TotalOrder-Weak", "TotalOrder-Weak-Nondet", "LazyDet")
	for _, g := range lockBased() {
		w := g.New(cfg.Scale)
		cells := make([]string, len(engines))
		for i, e := range engines {
			_, _, res, err := measure(w, harness.Options{Engine: e, Threads: threads, MeasureTimes: true}, cfg.Reps)
			if err != nil {
				return err
			}
			cells[i] = fmt.Sprintf("%.0f%% (%.0f%%)", res.UtilizationPct, res.BlockedPct)
		}
		cfg.printf("%-18s %16s %18s %20s %24s %16s\n",
			g.Name, cells[0], cells[1], cells[2], cells[3], cells[4])
	}
	return nil
}

// Fig11 reproduces Figure 11: LazyDet with individual speculation features
// disabled, normalized to full LazyDet.
func Fig11(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 8
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	variants := []struct {
		name string
		mod  func(*core.SpecConfig)
	}{
		{"NoCoarsening", func(s *core.SpecConfig) { s.Coarsening = false }},
		{"NoIrrevocable", func(s *core.SpecConfig) { s.Irrevocable = false }},
		{"NoPerLockStats", func(s *core.SpecConfig) { s.PerLockStats = false }},
	}
	cfg.printf("Figure 11: ablations, runtime normalized to full LazyDet, %d threads\n", threads)
	cfg.printf("%-18s %14s %15s %16s\n", "program", "NoCoarsening", "NoIrrevocable", "NoPerLockStats")
	csvf, err := cfg.csvFile("fig11", "program", "no_coarsening_x", "no_irrevocable_x", "no_perlockstats_x")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, g := range lockBased() {
		w := g.New(cfg.Scale)
		base, _, _, err := measure(w, harness.Options{Engine: harness.LazyDet, Threads: threads}, cfg.Reps)
		if err != nil {
			return err
		}
		row := make([]float64, len(variants))
		for i, v := range variants {
			sc := core.DefaultSpecConfig()
			v.mod(&sc)
			m, _, _, err := measure(w, harness.Options{Engine: harness.LazyDet, Threads: threads, Spec: sc}, cfg.Reps)
			if err != nil {
				return err
			}
			row[i] = m / base
		}
		cfg.printf("%-18s %13.2fx %14.2fx %15.2fx\n", g.Name, row[0], row[1], row[2])
		csvf.row(g.Name, row[0], row[1], row[2])
	}
	return nil
}

// Table2 reproduces Table 2: speculation statistics at 8, 16 and 32
// threads.
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	threadCounts := []int{8, 16, 32}
	if cfg.Quick {
		threadCounts = []int{8}
	}
	names := []string{"barnes", "ocean_cp", "ferret", "water_nsquared", "reverse_index", "water_spatial", "dedup"}
	cfg.printf("Table 2: speculation statistics (LazyDet)\n")
	cfg.printf("%-18s %8s %14s %12s %18s\n", "program", "threads", "% spec. acq.", "% success", "mean length (CS)")
	csvf, err := cfg.csvFile("table2", "program", "threads", "spec_acq_pct", "success_pct", "mean_cs")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, name := range names {
		g := workloads.ByName(name)
		w := g.New(cfg.Scale)
		for _, th := range threadCounts {
			res, err := harness.Run(w, harness.Options{Engine: harness.LazyDet, Threads: th, CollectSpec: true})
			if err != nil {
				return err
			}
			mean := res.Spec.MeanRunCS()
			ms := fmt.Sprintf("%.1f", mean)
			if res.Spec.Commits.Load() == 0 {
				ms = "N/A"
			}
			cfg.printf("%-18s %8d %13.1f%% %11.1f%% %18s\n",
				name, th, res.Spec.SpecAcquirePct(), res.Spec.SuccessPct(), ms)
			csvf.row(name, th, res.Spec.SpecAcquirePct(), res.Spec.SuccessPct(), ms)
		}
	}
	return nil
}

// Fig12 reproduces Figure 12: a scatter of revert cost vs change-set size
// with a least-squares fit. Reverts are harvested from the conflict-prone
// benchmarks at 8 threads.
func Fig12(cfg Config) error {
	cfg = cfg.withDefaults()
	threads := 8
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	var samples []stats.RevertSample
	srcs := []string{"water_spatial", "reverse_index", "dedup", "barnes", "radix"}
	for _, name := range srcs {
		g := workloads.ByName(name)
		res, err := harness.Run(g.New(cfg.Scale), harness.Options{Engine: harness.LazyDet, Threads: threads, CollectSpec: true})
		if err != nil {
			return err
		}
		samples = append(samples, res.Spec.RevertSamples()...)
	}
	// Small-table hash runs generate plenty of reverts with varied sizes.
	ht := workloads.DefaultHTConfig(workloads.HT)
	ht.MaxObjects = 512
	res, err := harness.Run(workloads.NewHashTable(ht), harness.Options{Engine: harness.LazyDet, Threads: threads, CollectSpec: true})
	if err != nil {
		return err
	}
	samples = append(samples, res.Spec.RevertSamples()...)

	if len(samples) == 0 {
		cfg.printf("Figure 12: no reverts observed\n")
		return nil
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	var meanCost float64
	for i, s := range samples {
		xs[i] = float64(s.ChangeSet)
		ys[i] = float64(s.CostNs)
		meanCost += ys[i]
	}
	meanCost /= float64(len(samples))
	slope, intercept := stats.LinReg(xs, ys)
	csvf, err := cfg.csvFile("fig12", "change_set_words", "cost_ns")
	if err != nil {
		return err
	}
	defer csvf.close()
	for _, sm := range samples {
		csvf.row(sm.ChangeSet, sm.CostNs)
	}
	cfg.printf("Figure 12: revert cost vs change-set size (%d reverts from %v + ht)\n", len(samples), srcs)
	cfg.printf("mean revert cost: %.0f ns\n", meanCost)
	cfg.printf("least-squares fit: cost_ns = %.1f * words + %.0f\n", slope, intercept)
	step := len(samples)/20 + 1
	cfg.printf("%-16s %12s\n", "change set (w)", "cost (ns)")
	for i := 0; i < len(samples); i += step {
		cfg.printf("%-16d %12d\n", samples[i].ChangeSet, samples[i].CostNs)
	}
	return nil
}

// ArbiterSweep measures how arbitration cost scales with thread count: the
// ht microbenchmark at t = 4…1024 (total operation count held constant)
// under LazyDet. For each point it reports wall time and the arbiter's own
// cost counters — wakes sent and election key comparisons — whose ratio is
// the per-grant arbitration work of the tournament tree.
func ArbiterSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	counts := []int{4, 16, 64, 256, 1024}
	if cfg.Quick {
		counts = []int{4, 64, 256}
	}
	if cfg.Threads > 0 {
		counts = []int{cfg.Threads}
	}
	csvf, err := cfg.csvFile("arbsweep", "threads", "arbiter", "wall_s", "wakes", "grant_work", "work_per_grant")
	if err != nil {
		return err
	}
	defer csvf.close()
	cfg.printf("arbiter cost vs threads: ht, constant total ops, LazyDet\n")
	cfg.printf("%8s %6s %12s %12s %14s %16s\n", "threads", "arb", "wall", "wakes", "grant work", "work/grant")
	for _, threads := range counts {
		htCfg := workloads.DefaultHTConfig(workloads.HT)
		htCfg.OpsPerThread = 16384 / threads
		if htCfg.OpsPerThread < 1 {
			htCfg.OpsPerThread = 1
		}
		w := workloads.NewHashTable(htCfg)
		opt := harness.Options{Engine: harness.LazyDet, Threads: threads, Trace: true}
		mean, _, last, err := measure(w, opt, cfg.Reps)
		if err != nil {
			return err
		}
		perGrant := float64(last.ArbiterGrantWork) / float64(max(last.SyncEvents, 1))
		cfg.printf("%8d %6s %12.4fs %12d %14d %16.1f\n",
			threads, "tree", mean, last.ArbiterWakes, last.ArbiterGrantWork, perGrant)
		csvf.row(threads, "tree", mean, last.ArbiterWakes, last.ArbiterGrantWork, perGrant)
	}
	return nil
}

// Versions demonstrates the §4.2 space claim: a DLRC-style system must
// retain versions per lock plus per thread, while DDRF's central version
// list coalesces to the live thread bases. The same LazyDet run executes
// against a trimming heap (DDRF) and a full-retention heap (the
// DLRC-accounting mode), and the surviving page-version counts are
// compared against the heap's page population.
func Versions(cfg Config) error {
	cfg = cfg.withDefaults()
	w := workloads.NewHashTable(workloads.DefaultHTConfig(workloads.HT))
	threads := 8
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	ddrf, err := harness.Run(w, harness.Options{Engine: harness.LazyDet, Threads: threads})
	if err != nil {
		return err
	}
	dlrc, err := harness.Run(w, harness.Options{Engine: harness.LazyDet, Threads: threads, FullVersionChains: true})
	if err != nil {
		return err
	}
	basePages := int(w.HeapWords/int64(256) + 1)
	cfg.printf("§4.2 scalability: memory versions retained, %d threads, %d commits\n", threads, ddrf.Commits)
	cfg.printf("%-34s %14s %10s\n", "retention policy", "page versions", "wall")
	cfg.printf("%-34s %14d %10v\n", "DDRF (coalesced version list)", ddrf.LiveVersions, ddrf.Wall)
	cfg.printf("%-34s %14d %10v\n", "DLRC-style (full retention)", dlrc.LiveVersions, dlrc.Wall)
	cfg.printf("heap population is %d pages; DDRF retains ~1 version per page,\n", basePages)
	cfg.printf("full retention grows with every commit (%d page versions written)\n", dlrc.PagesCommitted)
	return nil
}
