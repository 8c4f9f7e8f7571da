package main

import (
	"fmt"
	"runtime"
	"time"

	"lazydet"
	"lazydet/internal/opensim"
	"lazydet/internal/stats"
)

// engine is one of the four systems the benchmark runs.
type engine struct {
	name string // metric prefix
	kind lazydet.EngineKind
}

var (
	engLazyDet     = engine{"lazydet", lazydet.LazyDet}
	engConsequence = engine{"consequence", lazydet.Consequence}
	engWeak        = engine{"weak", lazydet.TotalOrderWeak}
	engDirect      = engine{"direct", lazydet.Pthreads}

	// dmtEngines is the fixed per-round order of the timed engines.
	dmtEngines = []engine{engLazyDet, engConsequence, engWeak}
)

// logical is a run's completion in deterministic logical time. On sim-open
// the unit of work is a request (admit to finish); on the batch workloads it
// is a thread's whole job, due at DLC 0 and finished at the thread's final
// stamp, so p99 of the four is the logical makespan.
type logical struct {
	dlcTotal       int64
	latP50, latP99 int64
	throughputKDLC float64
}

// runOut is what one engine run produced.
type runOut struct {
	wall time.Duration // the engine's own timed region (Result.Wall)
	// overhead is what a caller pays around the timed region: program
	// validation, heap construction and Init before it, hashing and the
	// oracle after it.
	overhead   time.Duration
	allocBytes uint64
	heapHash   uint64
	logical    logical
	// requests and badRequests count sim-open's per-request operations.
	requests, badRequests int64
	res                   *lazydet.Result
	sim                   *opensim.Result
}

// runEngine runs the instance once. extra carries the measurement options of
// the counter pass; the end-to-end pass leaves it zero, so the engines run in
// their default product configuration. An error is a failed operation: the
// run itself failed, or the oracle rejected its output.
func runEngine(inst *instance, e engine, extra lazydet.Options) (*runOut, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := runOnce(inst, e, extra)
	call := time.Since(start)
	runtime.ReadMemStats(&after)
	if out != nil {
		out.overhead = call - out.wall
		out.allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	return out, err
}

func runOnce(inst *instance, e engine, opt lazydet.Options) (*runOut, error) {
	if inst.sim != nil {
		cfg := *inst.sim
		cfg.Engine = e.kind
		cfg.Trace = opt.Trace
		sr, err := opensim.Run(cfg)
		if err != nil {
			return nil, err
		}
		out := &runOut{
			wall: sr.Harness.Wall, heapHash: sr.Harness.HeapHash, res: sr.Harness, sim: sr,
			logical: logical{
				dlcTotal: sr.Harness.Telemetry.Counter("dlc.total"),
				latP50:   sr.LatP50, latP99: sr.LatP99,
				throughputKDLC: sr.ThroughputKDLC,
			},
			requests: int64(len(sr.Requests)),
		}
		// opensim's own audit already rejects inconsistent stamps; recount
		// here so a request without a finish stamp is a failed operation of
		// its own, not only a failed run.
		for _, q := range sr.Requests {
			if !(q.Admit >= 1 && q.Admit <= q.Start && q.Start <= q.Finish) {
				out.badRequests++
			}
		}
		if out.badRequests > 0 {
			return out, fmt.Errorf("sim-open: %d requests with inconsistent stamps", out.badRequests)
		}
		return out, nil
	}

	opt.Engine, opt.Threads = e.kind, threads
	c := inst.closed
	res, err := lazydet.Run(c.w, opt)
	if res == nil {
		return nil, err
	}
	out := &runOut{wall: res.Wall, heapHash: res.HeapHash, res: res}
	for _, f := range c.finish {
		out.logical.dlcTotal += f
	}
	ps := stats.DLCPercentiles(c.finish[:], 50, 99) // nearest rank: of four stamps, the 2nd and the last
	makespan := ps[1]
	out.logical.latP50, out.logical.latP99 = ps[0], makespan
	if makespan > 0 {
		out.logical.throughputKDLC = float64(inst.ops) * 1000 / float64(makespan)
	}
	return out, err
}
