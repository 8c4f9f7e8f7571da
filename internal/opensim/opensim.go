// Package opensim is a deterministic open-loop request simulation layered
// on the harness: the "heavy traffic" lens on lazy determinism. A seeded,
// per-source partitioned RNG generates a Poisson-like arrival process in
// DLC time; each arrival instantiates a request program — drawn from a
// weighted workload mix with tunable contention and read-rate knobs — onto
// a bounded pool of simulated worker threads, queueing when all workers are
// busy.
//
// Because the arrival process is open-loop (arrivals do not wait for
// completions), queueing delay caused by arbitration and commit cost shows
// up in the latency tail rather than being absorbed by a closed feedback
// loop — the measurement ISSUE 8 and the real-time determinism literature
// call for.
//
// Every request is stamped admit/start/finish in DLC, read through the
// thread's logical clock and written to the shared versioned heap (so
// speculative executions that revert discard their stamps, and exactly one
// committed stamp survives — a Go-side array would race under LazyDet).
// Latency percentiles, queue depth and throughput are therefore functions
// of the deterministic schedule alone: bit-identical across hosts and Go
// versions, and gateable in CI. Wall-clock twins stay in the
// report's Timing half, following internal/telemetry's split.
package opensim

import (
	"errors"
	"fmt"

	"lazydet/internal/harness"
	"lazydet/internal/stats"
	"lazydet/internal/telemetry"
)

// Named configuration errors.
var (
	// ErrEngine rejects engines without a deterministic logical clock:
	// DLC-stamped latency is meaningless under pthreads and not
	// reproducible under TotalOrder-Weak-Nondet.
	ErrEngine = errors.New("opensim: engine has no deterministic logical clock (need Consequence, TotalOrder-Weak or LazyDet)")
	// ErrWorkers rejects an empty worker pool.
	ErrWorkers = errors.New("opensim: worker pool must have at least one thread")
	// ErrRequests rejects an empty arrival schedule.
	ErrRequests = errors.New("opensim: request count must be at least one")
	// ErrMix rejects a workload mix whose weights sum to zero.
	ErrMix = errors.New("opensim: workload mix weights must sum to a positive value")
)

// MixEntry is one request class in the weighted workload mix.
type MixEntry struct {
	// Name labels the class in per-request output.
	Name string `json:"name"`
	// Weight is the class's share of arrivals (relative to the sum).
	Weight int `json:"weight"`
	// Ops is the number of account operations per request.
	Ops int `json:"ops"`
	// ReadPct is the percentage of those operations that are reads
	// (shared-lock account lookups); the rest are locked read-modify-
	// write updates.
	ReadPct int `json:"read_pct"`
}

// DefaultMix is a lookup-heavy service mix: cheap reads, medium updates,
// and an occasional long scan that holds reader locks across many keys.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{Name: "lookup", Weight: 6, Ops: 2, ReadPct: 100},
		{Name: "update", Weight: 3, Ops: 4, ReadPct: 25},
		{Name: "scan", Weight: 1, Ops: 12, ReadPct: 100},
	}
}

// Config describes one simulation cell.
type Config struct {
	// Engine must be a deterministic engine (Consequence, TotalOrder-Weak
	// or LazyDet).
	Engine harness.EngineKind
	// Workers is the simulated worker-pool size; the VM runs Workers+1
	// threads (thread 0 is the arrival generator).
	Workers int
	// Requests is the total number of arrivals.
	Requests int
	// MeanGap is the mean inter-arrival gap in DLC units; offered load is
	// its reciprocal. Gaps are exponential-like (von Neumann sampling),
	// making the arrival process Poisson-like in DLC time.
	MeanGap int64
	// Seed drives every random stream (arrivals, mix, keys, read/write).
	Seed uint64

	// Keys is the account key space; Stripes the number of lock stripes
	// over it. HotPct percent of key draws are redirected into the first
	// HotKeys keys — the contention knob.
	Keys    int
	Stripes int
	HotPct  int
	HotKeys int

	// OpCost is the DLC compute cost modeled per account operation;
	// PollCost is the DLC cost an idle worker burns between queue polls.
	OpCost   int64
	PollCost int64

	// Mix is the weighted request mix; nil means DefaultMix.
	Mix []MixEntry

	// Trace enables sync-order trace recording (cross-checks).
	Trace bool
	// SpecHints seeds LazyDet's speculation policy with the progcheck
	// footprint verdicts (the queue lock classifies Conflicting, so the
	// hinted run skips its warm-up reverts). The hinted schedule is a
	// different — still deterministic — schedule, so DLC stamps and the
	// latency percentiles may shift; Validate's protocol invariants and
	// the account checksum hold either way. No effect on other engines.
	SpecHints bool
}

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Requests == 0 {
		c.Requests = 256
	}
	if c.MeanGap == 0 {
		c.MeanGap = 128
	}
	if c.Keys == 0 {
		c.Keys = 256
	}
	if c.Stripes == 0 {
		c.Stripes = 8
	}
	if c.HotKeys == 0 {
		c.HotKeys = 4
	}
	if c.OpCost == 0 {
		c.OpCost = 16
	}
	if c.PollCost == 0 {
		c.PollCost = 24
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	return c
}

// validate checks the filled config.
func (c Config) validate() error {
	if !c.Engine.Deterministic() {
		return fmt.Errorf("%w: got %s", ErrEngine, c.Engine)
	}
	if c.Workers < 1 {
		return ErrWorkers
	}
	if c.Requests < 1 {
		return ErrRequests
	}
	weight := 0
	for _, m := range c.Mix {
		weight += m.Weight
	}
	if weight <= 0 {
		return ErrMix
	}
	return nil
}

// Request is one served request's deterministic account.
type Request struct {
	// ID is the arrival index (also the admission order).
	ID int
	// Mix indexes Config.Mix.
	Mix int
	// Admit, Start and Finish are DLC stamps: admission to the queue,
	// dequeue by a worker, and completion.
	Admit, Start, Finish int64
	// Depth is the queue depth at admission, including this request.
	Depth int64
}

// Latency is the end-to-end DLC latency (queueing plus service).
func (r Request) Latency() int64 { return r.Finish - r.Admit }

// Wait is the queueing delay before a worker picked the request up.
func (r Request) Wait() int64 { return r.Start - r.Admit }

// Result is one simulation run's outcome.
type Result struct {
	// Harness is the underlying run (trace signature, heap hash,
	// telemetry, wall time).
	Harness *harness.Result
	// Requests holds every request's stamps in arrival order.
	Requests []Request

	// Deterministic latency metrics, in DLC units.
	LatP50, LatP95, LatP99 int64
	WaitP95                int64
	QDepthMax              int64
	QDepthMean             float64
	// MakespanDLC spans first admission to last completion.
	MakespanDLC int64
	// ThroughputKDLC is completed requests per 1000 DLC of makespan.
	ThroughputKDLC float64
}

// Run executes one simulation cell and returns its deterministic account.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := buildPlan(cfg)
	var collected []Request
	w := buildWorkload(cfg, p, &collected)
	opt := harness.Options{
		Engine:      cfg.Engine,
		Threads:     cfg.Workers + 1,
		Telemetry:   true,
		Trace:       cfg.Trace,
		CollectSpec: cfg.Engine == harness.LazyDet,
		SpecHints:   cfg.SpecHints,
	}
	hres, err := harness.Run(w, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Harness: hres, Requests: collected}
	res.summarize()
	res.publish(hres.Telemetry)
	return res, nil
}

// summarize computes the deterministic metrics from the stamps.
func (r *Result) summarize() {
	n := len(r.Requests)
	lats := make([]int64, n)
	waits := make([]int64, n)
	minAdmit, maxFinish := int64(0), int64(0)
	var depthSum int64
	for i, q := range r.Requests {
		lats[i] = q.Latency()
		waits[i] = q.Wait()
		if i == 0 || q.Admit < minAdmit {
			minAdmit = q.Admit
		}
		if q.Finish > maxFinish {
			maxFinish = q.Finish
		}
		if q.Depth > r.QDepthMax {
			r.QDepthMax = q.Depth
		}
		depthSum += q.Depth
	}
	ps := stats.DLCPercentiles(lats, 50, 95, 99)
	r.LatP50, r.LatP95, r.LatP99 = ps[0], ps[1], ps[2]
	r.WaitP95 = stats.DLCPercentiles(waits, 95)[0]
	r.QDepthMean = float64(depthSum) / float64(n)
	r.MakespanDLC = maxFinish - minAdmit
	if r.MakespanDLC > 0 {
		r.ThroughputKDLC = float64(n) * 1000 / float64(r.MakespanDLC)
	}
}

// publish lands the summary in the run's telemetry registry: the gauges
// become deterministic report Metrics (the sim.* metrics fingerprints.json
// pins), the latency histogram a deterministic report distribution.
func (r *Result) publish(tel *telemetry.Recorder) {
	if tel == nil {
		return
	}
	tel.Count("sim.requests", int64(len(r.Requests)))
	for _, q := range r.Requests {
		tel.Observe("sim.latency_dlc", q.Latency())
	}
	tel.SetGauge("sim.latency_p50", float64(r.LatP50))
	tel.SetGauge("sim.latency_p95", float64(r.LatP95))
	tel.SetGauge("sim.latency_p99", float64(r.LatP99))
	tel.SetGauge("sim.wait_p95", float64(r.WaitP95))
	tel.SetGauge("sim.qdepth_max", float64(r.QDepthMax))
	tel.SetGauge("sim.qdepth_mean", r.QDepthMean)
	tel.SetGauge("sim.makespan_dlc", float64(r.MakespanDLC))
	tel.SetGauge("sim.throughput_kdlc", r.ThroughputKDLC)
}
