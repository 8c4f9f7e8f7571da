package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lazydet"
	"lazydet/internal/opensim"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
)

// directScale is how many times the iterations pthreads runs, so that its
// run lasts long enough to time; ns/op divides the factor out again.
const directScale = 8

// counters are the numbers the program already exports for one run with
// Telemetry, MeasureTimes and CollectSpec on — read here, never redefined.
type counters struct {
	res  *lazydet.Result
	snap telemetry.Snapshot
}

func readCounters(res *lazydet.Result) counters {
	return counters{res: res, snap: res.Telemetry.Snapshot()}
}

func (c counters) count(name string) float64 { return float64(c.snap.Counters[name]) }

// retired sums the per-opcode retired-instruction counters.
func (c counters) retired() float64 {
	var n int64
	for k, v := range c.snap.Counters {
		if strings.HasPrefix(k, "dvm.retired.") {
			n += v
		}
	}
	return float64(n)
}

// histMedian is the lower bound of the power-of-two bucket holding the
// histogram's median sample.
func (c counters) histMedian(name string) float64 {
	h := c.snap.Histograms[name]
	lows := make([]int64, 0, len(h.Buckets))
	for k := range h.Buckets {
		if low, err := strconv.ParseInt(k, 10, 64); err == nil {
			lows = append(lows, low)
		}
	}
	sort.Slice(lows, func(i, j int) bool { return lows[i] < lows[j] })
	var seen int64
	for _, low := range lows {
		seen += h.Buckets[strconv.FormatInt(low, 10)]
		if 2*seen >= h.N {
			return float64(low)
		}
	}
	return 0
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives the drivers' op mix from the counters.
func (c counters) mix(heapWords int64) opMix {
	commits := float64(c.res.Commits)
	return opMix{
		heapWords:      heapWords,
		wordsPerCommit: int(c.histMedian("vheap.commit_words")),
		pagesPerCommit: int(math.Ceil(ratio(float64(c.res.PagesCommitted), commits))),
		dlcGap:         int64(ratio(c.count("dlc.total"), c.count("turn.waits"))),
	}
}

// into writes the [C] rows: the program's own counters, LazyDet's run.
func (c counters) into(m map[string]float64) {
	res := c.res
	m["harness.blocked_pct"] = res.BlockedPct
	m["dvm.retired_instr"] = c.retired()
	if sp := res.Spec; sp != nil {
		m["core.spec_runs"] = float64(sp.Runs.Load())
		m["core.spec_reverts"] = float64(sp.Reverts.Load())
		m["core.spec_success_pct"] = sp.SuccessPct()
		m["core.spec_acquire_pct"] = sp.SpecAcquirePct()
		if cs := sp.MeanRunCS(); !math.IsNaN(cs) {
			m["core.cs_per_run"] = cs
		}
		var costs []int64
		for _, r := range sp.RevertSamples() {
			costs = append(costs, r.CostNs)
			m["revert_total_ns"] += float64(r.CostNs)
		}
		if len(costs) > 0 {
			ps := stats.DLCPercentiles(costs, 50, 99)
			m["core.revert_ns_p50"], m["core.revert_ns_p99"] = float64(ps[0]), float64(ps[1])
		}
	}
	m["core.reverted_words"] = c.count("spec.reverted_words")
	m["core.commit_elided"] = c.count("commit.elided")
	m["dlc.turn_waits"] = c.count("turn.waits")
	m["dlc.grant_work"] = float64(res.ArbiterGrantWork)
	m["dlc.wakes"] = float64(res.ArbiterWakes)
	m["dlc.chain_hits"] = float64(res.ArbiterChainHits)
	m["dlc.chain_fast"] = c.count("dlc.chain_fast")
	m["dlc.tick_flushes"] = c.count("dlc.tick_flushes")
	m["vheap.commits"] = float64(res.Commits)
	m["vheap.words_committed"] = float64(res.WordsCommitted)
	m["vheap.pages_committed"] = float64(res.PagesCommitted)
	m["vheap.words_scanned"] = float64(res.WordsScanned)
	m["vheap.words_per_commit"] = ratio(float64(res.WordsCommitted), float64(res.Commits))
	m["vheap.live_versions"] = float64(res.LiveVersions)
	m["vheap.page_pool_hit_pct"] = pct(c.count("vheap.page_pool_hits"), c.count("vheap.page_pool_hits")+c.count("vheap.page_pool_misses"))
	m["vheap.frame_pool_hit_pct"] = pct(c.count("vheap.frame_pool_hits"), c.count("vheap.frame_pool_hits")+c.count("vheap.frame_pool_misses"))
	m["mempipe.publishes"] = c.count("mempipe.publishes")
	m["mempipe.publish_dirty_words_p50"] = c.histMedian("mempipe.publish_dirty_words")
	m["mempipe.stage_publishes"] = c.count("vheap.stage_publishes")
	m["mempipe.stage_flushes"] = c.count("vheap.stage_flushes")
	var revSum, revMax int64
	for _, n := range res.LockReverts {
		revSum += n
		if n > revMax {
			revMax = n
		}
	}
	m["detsync.conflict_reverts"] = float64(revSum)
	m["detsync.hot_lock_revert_share"] = ratio(float64(revMax), float64(revSum))
}

// driverCosts are the [D] unit costs of one traced pass.
type driverCosts struct {
	vheap                      vheapCosts
	publishNs, grantNs, tickNs float64
	dvm                        dvmCosts
}

// runDrivers runs every layer driver at the counter run's op mix.
func runDrivers(c counters, w *lazydet.Workload) (driverCosts, error) {
	mix := c.mix(w.HeapWords)
	timer := timerCost()
	d := driverCosts{vheap: driveVheap(mix, timer), publishNs: driveMempipe(mix, timer)}
	d.grantNs, d.tickNs = driveDLC(mix)
	var err error
	d.dvm, err = driveDVM(w.Programs(threads), w.HeapWords)
	return d, err
}

// into writes the [D] rows: unit costs, and the estimates that price the
// counter run's counts with them.
func (d driverCosts) into(m map[string]float64, c counters) {
	m["dvm.interp_ns_per_instr"], m["dvm.compiled_ns_per_instr"] = d.dvm.interpNs, d.dvm.compiledNs
	m["dvm.compile_ns"] = d.dvm.compileNs
	m["dlc.grant_ns"], m["dlc.tick_ns"] = d.grantNs, d.tickNs
	m["vheap.load_ns"], m["vheap.store_ns"] = d.vheap.loadNs, d.vheap.storeNs
	m["vheap.commit_ns"], m["vheap.update_ns"] = d.vheap.commitNs, d.vheap.updateNs
	m["vheap.snapshot_ns"], m["vheap.revert_ns"] = d.vheap.snapshotNs, d.vheap.revertNs
	m["mempipe.publish_ns"] = d.publishNs
	m["vheap.access_est_ns"] = c.count("dvm.retired.load")*d.vheap.loadNs + c.count("dvm.retired.store")*d.vheap.storeNs
	m["vheap.commit_est_ns"] = float64(c.res.Commits) * d.vheap.commitNs
}

// ledgerSamples turns one traced LazyDet run into its [S] rows. Tick is
// counted, not timed, so its time is the count priced at dlc.tick_ns, moved
// from outside the spans (where the clock left it) into core's side.
func ledgerSamples(add func(string, float64), to *tracedOut, tickNs float64) {
	l := to.ledger
	tickEst := float64(l.ticks) * tickNs
	add("thread_wall_ns", float64(l.threadWall))
	add("dvm.exec_self_ns", float64(l.outside)-tickEst)
	add("dlc.blocked_ns", float64(to.blockedNs))
	add("core.sync_busy_ns", float64(l.hookNs()-to.blockedNs)+tickEst)
	add("core.lock_ns", float64(l.hooks[spanLock].ns))
	add("core.unlock_ns", float64(l.hooks[spanUnlock].ns))
	add("core.barrier_ns", float64(l.hooks[spanBarrier].ns))
	add("core.exit_ns", float64(l.hooks[spanExit].ns))
	add("core.lock_calls", float64(l.hooks[spanLock].calls))
	add("core.tick_calls", float64(l.ticks))
	add("core.tick_ns", tickEst)
}

// tracedPass measures the per-layer metrics. One counter run per traced
// engine and the layer drivers come first; then each round runs pthreads (at
// directScale x the iterations on the lock workloads), the three DMT engines
// untraced, LazyDet and Consequence again on every vCPU (the mp_speedup
// rows), and LazyDet and Consequence traced. End-to-end numbers are never
// taken from here.
func tracedPass(w io.Writer, spec workloadSpec, seed uint64, sz sizes, budget time.Duration, rounds int, spansPath string) *report {
	rep := newReport(spec, seed, 1)
	inst := spec.build(seed, sz)
	tw := tracedWorkload(inst)
	var direct *instance
	if inst.sim == nil { // opensim has no pthreads mode
		direct = spec.build(seed, sz.scaled(directScale))
	}

	measure := lazydet.Options{Telemetry: true, MeasureTimes: true, CollectSpec: true}
	var ctr [2]counters // LazyDet, Consequence
	for i, e := range dmtEngines[:2] {
		out := rep.checked(inst, e, measure, nil)
		if out == nil {
			return rep
		}
		ctr[i] = readCounters(out.res)
	}
	lz := ctr[0]
	costs, err := runDrivers(lz, tw)
	if err != nil {
		rep.fail(1, "dvm driver: "+err.Error())
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	refs := make([]reference, len(dmtEngines))
	tr := newTracer()
	var cqLedger ledger
	var cqBlocked int64
	var simOut *opensim.Result
	start := time.Now()
	for {
		roundStart := time.Now()
		var nsPerOp float64
		if direct != nil {
			if out := rep.checked(direct, engDirect, lazydet.Options{}, nil); out != nil {
				nsPerOp = float64(out.wall) / float64(direct.ops)
				add("direct.wall_s", out.wall.Seconds())
				add("direct.ns_per_op", nsPerOp)
			}
		}
		var untraced [2]time.Duration
		for i, e := range dmtEngines {
			out := rep.checked(inst, e, lazydet.Options{}, &refs[i])
			if out == nil {
				continue
			}
			if i < len(untraced) {
				untraced[i] = out.wall
			}
			if nsPerOp > 0 {
				add("harness.slowdown."+e.name, float64(out.wall)/float64(inst.ops)/nsPerOp)
			}
			if e == engLazyDet && out.sim != nil {
				simOut = out.sim
				add("opensim.run_ns", float64(out.wall))
			}
		}
		// What real parallelism adds on this host: the same two untraced
		// runs with one P per vCPU instead of the protocol's single P.
		if mp := min(runtime.NumCPU(), threads); mp > 1 {
			prev := runtime.GOMAXPROCS(mp)
			for i, e := range dmtEngines[:2] {
				if out := rep.checked(inst, e, lazydet.Options{}, &refs[i]); out != nil && out.wall > 0 {
					add("harness.mp_speedup."+e.name, float64(untraced[i])/float64(out.wall))
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		for i, e := range dmtEngines[:2] {
			to, err := tracedRun(tw, e == engLazyDet, tr, false)
			if err == nil && refs[i].set && to.heapHash != refs[i].heapHash {
				err = fmt.Errorf("traced heap hash %x differs from the untraced run's %x", to.heapHash, refs[i].heapHash)
			}
			rep.op(inst.name+"/"+e.name+"/traced", err)
			if e != engLazyDet {
				cqLedger, cqBlocked = to.ledger, to.blockedNs
				continue
			}
			add("harness.trace_overhead_pct", pct(float64(to.wall-untraced[i]), float64(untraced[i])))
			ledgerSamples(add, to, costs.tickNs)
			if spansPath != "" {
				if err := writeSpans(spansPath, tr); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
				}
			}
		}
		if inst.sim != nil {
			t0 := time.Now()
			opensim.VetPrograms(*inst.sim, threads)
			add("opensim.plan_ns", float64(time.Since(t0)))
		}
		rep.Rounds++
		if enough(rep.Rounds, rounds, start, roundStart, budget) {
			break
		}
	}

	m := map[string]float64{}
	for name, s := range samples {
		m[name] = median(s)
	}
	lz.into(m)
	costs.into(m, lz)
	m["dvm.ns_per_instr"] = ratio(m["dvm.exec_self_ns"], m["dvm.retired_instr"])
	if simOut != nil {
		m["opensim.lat_p95_dlc"] = float64(simOut.LatP95)
		m["opensim.wait_p95_dlc"] = float64(simOut.WaitP95)
		m["opensim.qdepth_max"] = float64(simOut.QDepthMax)
		m["opensim.qdepth_mean"] = simOut.QDepthMean
		m["opensim.makespan_dlc"] = float64(simOut.MakespanDLC)
	}
	split := splitSyncBusy(m)
	m["harness.ledger_coverage_pct"] = coveragePct(m["thread_wall_ns"], split.unattributed)

	for _, d := range perLayer {
		rep.Metrics[d.name] = exact(d.unit, m[d.name])
		if s := samples[d.name]; len(s) > 0 {
			rep.Metrics[d.name] = summarize(d.unit, s)
		}
	}
	rep.Correct = rep.Failed == 0
	printLedger(w, "LazyDet", m, split)
	printSpanTable(w, "Consequence", cqLedger, cqBlocked, ctr[1])
	return rep
}

// syncSplit divides core.sync_busy_ns — the time inside hook spans that was
// not blocked — among the layers below core. Tick time is measured (its own
// spans); commit, re-base and snapshot are count × driver unit cost; revert
// is the program's own revert samples. What is left is core's bookkeeping
// plus whatever the estimates miss: the unattributed remainder.
type syncSplit struct {
	tick, commit, rebase, snapshot, revert, unattributed float64
}

func splitSyncBusy(m map[string]float64) syncSplit {
	s := syncSplit{
		tick:     m["core.tick_ns"],
		commit:   m["vheap.commit_est_ns"],
		rebase:   m["dlc.turn_waits"] * m["vheap.update_ns"],
		snapshot: m["core.spec_runs"] * m["vheap.snapshot_ns"],
		revert:   m["revert_total_ns"],
	}
	s.unattributed = m["core.sync_busy_ns"] - s.tick - s.commit - s.rebase - s.snapshot - s.revert
	return s
}

// printLedger prints the outside-in cost ledger: rows that sum to the
// threads' wall time, the unattributed share stated.
func printLedger(w io.Writer, engine string, m map[string]float64, s syncSplit) {
	total := m["thread_wall_ns"]
	row := func(indent, name string, ns float64, src string) {
		fmt.Fprintf(w, "  %s%-*s %14.0f ns %6.1f %%  %s\n", indent, 44-len(indent), name, ns, pct(ns, total), src)
	}
	fmt.Fprintf(w, "-- cost ledger, %s: where the threads' wall time went (medians over traced rounds)\n", engine)
	row("", "thread wall time (sum over threads)", total, "[S] run spans")
	row("", "dvm.exec_self_ns", m["dvm.exec_self_ns"], "[S] thread wall - hook spans - ticks")
	row("  ", "of which vheap.access_est_ns", m["vheap.access_est_ns"], "[D] loads, stores x unit cost")
	row("", "dlc.blocked_ns", m["dlc.blocked_ns"], "[C] turn and wake waits")
	row("", "core.sync_busy_ns", m["core.sync_busy_ns"], "[S] hook spans - blocked")
	row("  ", "tick (core.tick_ns)", s.tick, "[D] counted Ticks x dlc.tick_ns")
	row("  ", "commit (vheap.commit_est_ns)", s.commit, "[D] commits x vheap.commit_ns")
	row("  ", "re-base", s.rebase, "[D] turn waits x vheap.update_ns")
	row("  ", "snapshot", s.snapshot, "[D] spec runs x vheap.snapshot_ns")
	row("  ", "revert", s.revert, "[C] revert samples")
	row("  ", "unattributed remainder", s.unattributed, "core bookkeeping + estimate error")
	fmt.Fprintf(w, "  coverage %.1f %%, tracing overhead %.1f %% of untraced wall\n",
		m["harness.ledger_coverage_pct"], m["harness.trace_overhead_pct"])
}

// printSpanTable prints the measured half of the ledger for the second
// traced engine, from its last traced round.
func printSpanTable(w io.Writer, engine string, l ledger, blockedNs int64, c counters) {
	total := float64(l.threadWall)
	fmt.Fprintf(w, "-- spans, %s (last traced round): thread wall %.0f ns\n", engine, total)
	fmt.Fprintf(w, "  %-12s %14.0f ns %6.1f %%  (%d Tick calls inside)\n", "outside spans", float64(l.outside), pct(float64(l.outside), total), l.ticks)
	fmt.Fprintf(w, "  %-12s %14.0f ns %6.1f %%\n", "blocked", float64(blockedNs), pct(float64(blockedNs), total))
	for k := spanLock; k < numSpanKinds; k++ {
		h := l.hooks[k]
		fmt.Fprintf(w, "  %-12s %14.0f ns %6.1f %%  %d calls\n", spanNames[k], float64(h.ns), pct(float64(h.ns), total), h.calls)
	}
	fmt.Fprintf(w, "  turn waits %.0f, commits %d, words committed %d\n", c.count("turn.waits"), c.res.Commits, c.res.WordsCommitted)
}
