// Run-report construction: folds the harness's measurements — the telemetry
// registry plus the legacy stats collectors (speculation, blocked time, the
// sync-order trace) — into one telemetry.RunReport, the unit lazydet-run and
// lazydet-bench -grid serialize. Its Metrics half is what testdata/fingerprints.json
// pins, exactly, for every pinned run (TestPinnedFingerprints).
package harness

import (
	"fmt"
	"sort"

	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
)

// absorbStats publishes the per-run stats collectors into the telemetry
// registry after the run, so the registry is the single reporting surface.
// The heap and pipeline publish their counters live (via vheap.WithTelemetry
// and the engine's Deps.Tel); only the collectors the engines still own are
// folded in here.
func absorbStats(tel *telemetry.Recorder, res *Result) {
	if s := res.Spec; s != nil {
		tel.Count("spec.total_acquires", s.TotalAcquires.Load())
		tel.Count("spec.spec_acquires", s.SpecAcquires.Load())
		tel.Count("spec.runs", s.Runs.Load())
		tel.Count("spec.commits", s.Commits.Load())
		tel.Count("spec.reverts", s.Reverts.Load())
		tel.Count("spec.committed_cs", s.CommittedCS.Load())
		tel.Count("spec.upgrades", s.Upgrades.Load())
		tel.Count("spec.extended_runs", s.ExtendedRuns.Load())
		tel.SetGauge("spec.acquire_pct", s.SpecAcquirePct())
		tel.SetGauge("spec.success_pct", s.SuccessPct())
	}
	if res.LockReverts != nil {
		// Lock-attributed revert total: a deterministic function of the
		// schedule (ConflictReverts mutates only at turns), so a metric. The
		// per-lock breakdown stays on Result.LockReverts for callers; only
		// the sum is a stable metric name across workloads.
		var sum int64
		for _, n := range res.LockReverts {
			sum += n
		}
		tel.Count("spec.conflict_reverts", sum)
	}
	if res.Recorder != nil {
		tel.Count("sync.events", res.SyncEvents)
	}
}

// timingCounters names telemetry counters that carry wall time rather than
// deterministic counts; BuildReport routes them into the never-pinned Timing
// section so Metrics stays reproducible across machines.
var timingCounters = map[string]bool{
	// The frame/page pool hit ratios depend on when the runtime scheduler
	// lets views register against the trim floor — an allocation detail,
	// not deterministic machine state — so they are informational only.
	"vheap.frame_pool_hits":   true,
	"vheap.frame_pool_misses": true,
	"vheap.page_pool_hits":    true,
	"vheap.page_pool_misses":  true,
	// Arbiter wakes count cross-thread grants (the grantee was already
	// asleep when its turn came; a thread that arrives as the minimum grants
	// itself) and grant work how many key comparisons elections cost — both
	// a function of which threads the runtime scheduler had blocked at each
	// instant, not of the deterministic schedule.
	"dlc.wakes":      true,
	"dlc.grant_work": true,
	// Fast-path chain grants additionally require the granted thread's
	// arrival to beat every rival's clock publication — a wall-clock race —
	// so they stay informational; dlc.chain_hits (the chance the fast path
	// chases) is deterministic and a metric.
	"dlc.chain_fast": true,
}

// BuildReport converts one run's measurements into a report entry.
//
// Deterministic values (every telemetry counter and gauge — DLC totals,
// turn waits, commit word counts, speculation outcomes) land in Metrics,
// which a pinned run must reproduce exactly. Machine-dependent values
// (wall/CPU time, utilization, per-thread blocked time, revert-cost
// nanosecond percentiles) land in Timing, which is reported but never pinned.
func BuildReport(res *Result) telemetry.RunReport {
	r := telemetry.RunReport{
		Workload: res.Workload,
		Engine:   res.Engine.String(),
		Threads:  res.Threads,
		HeapHash: fmt.Sprintf("%016x", res.HeapHash),
		Metrics:  map[string]float64{},
		Timing:   map[string]float64{},
	}
	if res.TraceSig != 0 {
		r.TraceSig = fmt.Sprintf("%016x", res.TraceSig)
	}
	if t := res.Telemetry; t != nil {
		snap := t.Snapshot()
		for k, v := range snap.Counters {
			if timingCounters[k] {
				r.Timing[k] = float64(v)
				continue
			}
			r.Metrics[k] = float64(v)
		}
		for k, v := range snap.Gauges {
			r.Metrics[k] = v
		}
		if len(snap.Histograms) > 0 {
			r.Histograms = snap.Histograms
		}
	}

	r.Timing["wall_ns"] = float64(res.Wall.Nanoseconds())
	r.Timing["cpu_ns"] = float64(res.CPU.Nanoseconds())
	if res.Allocs > 0 {
		r.Timing["allocs"] = float64(res.Allocs)
	}
	// Which versions the trim floor still pins depends on when each view
	// re-based and closed, which the host scheduler decides.
	if res.LiveVersions > 0 {
		r.Timing["vheap.live_versions"] = float64(res.LiveVersions)
	}
	if res.Times != nil {
		r.Timing["utilization_pct"] = res.UtilizationPct
		r.Timing["blocked_pct"] = res.BlockedPct
		r.Timing["blocked_total_ns"] = float64(res.Times.TotalBlockedNs())
		for i := 0; i < res.Threads; i++ {
			r.Timing[fmt.Sprintf("blocked_ns.t%d", i)] = float64(res.Times.BlockedNs(i))
		}
	}
	if res.Spec != nil {
		if samples := res.Spec.RevertSamples(); len(samples) > 0 {
			costs := make([]int64, len(samples))
			for i, s := range samples {
				costs[i] = s.CostNs
			}
			sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
			for _, p := range []float64{50, 90, 99} {
				r.Timing[fmt.Sprintf("revert_ns.p%d", int(p))] = float64(stats.Percentile(costs, p))
			}
		}
	}
	return r
}
