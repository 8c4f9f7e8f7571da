package main

import (
	"testing"

	"lazydet"
	"lazydet/internal/stats"
)

// The tracedEngine and the mirrored wiring must not perturb the schedule: on
// every workload, under both traced engines, a traced run produces the heap,
// the synchronization order and the logical clocks of the public path.
func TestTracedRunMatchesPublicPath(t *testing.T) {
	tr := newTracer()
	for _, spec := range workloadSpecs {
		for _, e := range dmtEngines[:2] {
			inst := spec.build(5, quickSizes)
			pub, err := runOnce(inst, e, lazydet.Options{Trace: true, Telemetry: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.name, e.name, err)
			}
			to, err := tracedRun(tracedWorkload(inst), e == engLazyDet, tr, true)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", spec.name, e.name, err)
			}
			if to.heapHash != pub.res.HeapHash {
				t.Errorf("%s/%s: traced heap %x, public %x", spec.name, e.name, to.heapHash, pub.res.HeapHash)
			}
			if to.traceSig != pub.res.TraceSig || to.traceSig == 0 {
				t.Errorf("%s/%s: traced sync order %x, public %x", spec.name, e.name, to.traceSig, pub.res.TraceSig)
			}
			var dlcTotal int64
			for _, d := range to.finalDLC {
				dlcTotal += d
			}
			if want := pub.res.Telemetry.Counter("dlc.total"); dlcTotal != want {
				t.Errorf("%s/%s: traced dlc.total %d, public %d", spec.name, e.name, dlcTotal, want)
			}
			if c := inst.closed; c != nil {
				// tracedRun's Validate refilled the stamps: the gated
				// logical-time metrics are read from them.
				if got := stats.DLCPercentiles(c.finish[:], 100)[0]; got != pub.logical.latP99 {
					t.Errorf("%s/%s: traced makespan %d, public %d", spec.name, e.name, got, pub.logical.latP99)
				}
			}

			// Span bookkeeping of a real run: hook spans nest inside the
			// thread's run span and never add up to more than it.
			for tid, spans := range tr.threads {
				run := spans[0]
				var inside int64
				for _, s := range spans[1:] {
					if s.start < run.start || s.end > run.end || s.end < s.start {
						t.Fatalf("%s/%s thread %d: span %+v outside run %+v", spec.name, e.name, tid, s, run)
					}
					inside += s.end - s.start
				}
				if wall := run.end - run.start; inside > wall {
					t.Errorf("%s/%s thread %d: spans sum to %d ns, thread wall %d ns", spec.name, e.name, tid, inside, wall)
				}
			}
			l := to.ledger
			if l.outside+l.hookNs() != l.threadWall {
				t.Errorf("%s/%s: outside %d + hooks %d != thread wall %d", spec.name, e.name, l.outside, l.hookNs(), l.threadWall)
			}
			if l.ticks != pub.res.Telemetry.Counter("dlc.tick_flushes") {
				t.Errorf("%s/%s: counted %d Ticks, engine flushed %d", spec.name, e.name, l.ticks, pub.res.Telemetry.Counter("dlc.tick_flushes"))
			}
		}
	}
}

func TestSpanArithmetic(t *testing.T) {
	tr := newTracer()
	tr.threads[0] = []span{
		{kind: spanRun, parent: -1, start: 100, end: 1100},  // 1000 ns
		{kind: spanLock, parent: 0, start: 200, end: 500},   // 300
		{kind: spanUnlock, parent: 0, start: 600, end: 650}, // 50
		{kind: spanLock, parent: 0, start: 700, end: 800},   // 100
	}
	tr.threads[1] = []span{
		{kind: spanRun, parent: -1, start: 0, end: 400},
		{kind: spanExit, parent: 0, start: 300, end: 400},
	}
	tr.ticks[0].calls, tr.ticks[1].calls = 7, 3

	if got := selfTime(tr.threads[0], 0); got != 550 {
		t.Errorf("self time of the run span = %d, want 1000-300-50-100 = 550", got)
	}
	if got := selfTime(tr.threads[0], 1); got != 300 {
		t.Errorf("self time of a leaf span = %d, want its duration 300", got)
	}
	l := ledgerOf(tr)
	want := ledger{threadWall: 1400, ticks: 10, outside: 850}
	want.hooks[spanLock] = hookTotals{calls: 2, ns: 400}
	want.hooks[spanUnlock] = hookTotals{calls: 1, ns: 50}
	want.hooks[spanExit] = hookTotals{calls: 1, ns: 100}
	if l != want {
		t.Errorf("ledger = %+v\nwant     %+v", l, want)
	}
	if l.hookNs() != 550 || l.outside+l.hookNs() != l.threadWall {
		t.Errorf("rows do not sum: outside %d + hooks %d vs wall %d", l.outside, l.hookNs(), l.threadWall)
	}

	// Coverage is computed from the same spans: the share of thread wall not
	// left unattributed; an over-attributed ledger is capped at 100 %.
	for _, c := range []struct{ wall, unattributed, want float64 }{
		{1400, 140, 90}, {1400, 0, 100}, {1400, -50, 100}, {0, 0, 0},
	} {
		if got := coveragePct(c.wall, c.unattributed); got != c.want {
			t.Errorf("coveragePct(%v, %v) = %v, want %v", c.wall, c.unattributed, got, c.want)
		}
	}

	// The split of sync-busy time sums back to it.
	m := map[string]float64{
		"core.sync_busy_ns": 1000, "core.tick_ns": 100, "vheap.commit_est_ns": 200,
		"dlc.turn_waits": 10, "vheap.update_ns": 5, "core.spec_runs": 4, "vheap.snapshot_ns": 25,
		"revert_total_ns": 50,
	}
	s := splitSyncBusy(m)
	if sum := s.tick + s.commit + s.rebase + s.snapshot + s.revert + s.unattributed; sum != 1000 || s.unattributed != 500 {
		t.Errorf("split %+v sums to %v, want 1000 with 500 unattributed", s, sum)
	}
}
