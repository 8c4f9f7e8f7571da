package main

import (
	"fmt"
	"runtime"
	"time"

	"lazydet"
)

// report is one run of the benchmark on one workload: what `-out` appends
// and what `-compare` reads. The last line of standard output is its
// {correct, attempted, failed, metrics} subset, metrics cut to value+unit.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Rounds     int                `json:"rounds"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]summary `json:"metrics"`
	// Failures holds the first few failed operations, for the reader.
	Failures []string `json:"failures,omitempty"`
}

// op counts one attempted operation — an engine run, or on sim-open a
// request — and records it as failed when err is non-nil.
func (r *report) op(what string, err error) {
	r.Attempted++
	if err != nil {
		r.fail(1, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) fail(n int64, note string) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, note)
	}
}

func newReport(spec workloadSpec, seed uint64, trace int) *report {
	return &report{
		Workload: spec.name, Seed: seed, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]summary{},
	}
}

// reference is what round 0 of a deterministic engine produced; every later
// round must reproduce it exactly.
type reference struct {
	heapHash uint64
	logical  logical
	set      bool
}

// checked runs one engine and books the outcome: the run and, on sim-open,
// each request are attempted operations; a Run error, an oracle mismatch, a
// request without consistent stamps, or a deterministic engine departing from
// its own round-0 heap and logical times are failed ones.
func (r *report) checked(inst *instance, e engine, extra lazydet.Options, ref *reference) *runOut {
	out, err := runEngine(inst, e, extra)
	what := inst.name + "/" + e.name
	r.op(what, err)
	if out == nil {
		return nil
	}
	r.Attempted += out.requests
	if out.badRequests > 0 {
		r.fail(out.badRequests, what+": requests with inconsistent stamps")
	}
	if err != nil || ref == nil {
		return out
	}
	switch {
	case !ref.set:
		ref.heapHash, ref.logical, ref.set = out.heapHash, out.logical, true
	case out.heapHash != ref.heapHash:
		r.fail(1, fmt.Sprintf("%s: heap hash %x differs from round 0's %x", what, out.heapHash, ref.heapHash))
	case out.logical != ref.logical:
		r.fail(1, fmt.Sprintf("%s: logical times %+v differ from round 0's %+v", what, out.logical, ref.logical))
	}
	return out
}

// minRounds is the fewest timed rounds a run reports a median over, however
// short its budget.
const minRounds = 3

// enough reports whether a pass that has finished done rounds may stop: after
// a fixed count when rounds is set (-quick), otherwise once another round
// like the last one would overrun the budget.
func enough(done, rounds int, start, roundStart time.Time, budget time.Duration) bool {
	if rounds > 0 {
		return done >= rounds
	}
	return done >= minRounds && time.Since(start)+time.Since(roundStart) > budget
}

// endToEndPass measures the end-to-end metrics: engines in their default
// configuration through the public API, rounds outermost, one untimed
// warm-up round first (which also runs pthreads once, for the oracle), then
// timed rounds until the budget is spent. A host-time metric is the fastest
// of its rounds.
func endToEndPass(spec workloadSpec, seed uint64, sz sizes, budget time.Duration, rounds int) *report {
	rep := newReport(spec, seed, 0)
	refs := make([]reference, len(dmtEngines))

	warm := spec.build(seed, sz)
	for i, e := range dmtEngines {
		rep.checked(warm, e, lazydet.Options{}, &refs[i])
	}
	if warm.sim == nil { // opensim has no pthreads mode
		rep.checked(warm, engDirect, lazydet.Options{}, nil)
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	start := time.Now()
	for {
		roundStart := time.Now()
		runtime.GC()
		t0 := time.Now()
		inst := spec.build(seed, sz)
		setup := time.Since(t0)
		if inst.plan != warm.plan {
			rep.fail(1, "plan differs between two builds of one seed")
		}
		for i, e := range dmtEngines {
			out := rep.checked(inst, e, lazydet.Options{}, &refs[i])
			if out == nil {
				continue
			}
			add(e.name+".wall_s", out.wall.Seconds())
			if e == engLazyDet {
				add("lazydet.alloc_mb", float64(out.allocBytes)/1e6)
				// Set-up is everything a user pays outside the engine's
				// timed region: seed -> plan -> programs here, validation,
				// heap construction, Init, hashing and the oracle inside Run.
				add("setup_s", (setup + out.overhead).Seconds())
			}
		}
		rep.Rounds++
		if enough(rep.Rounds, rounds, start, roundStart, budget) {
			break
		}
	}

	for _, m := range endToEnd {
		s, ok := samples[m.name]
		switch {
		case !ok:
		case m.unit == "s": // the host-time metrics: walls and set-up
			rep.Metrics[m.name] = fastest(m.unit, s)
		default:
			rep.Metrics[m.name] = summarize(m.unit, s)
		}
	}
	lz, cq := refs[0].logical, refs[1].logical
	rep.Metrics["lazydet.dlc_total"] = exact("DLC", float64(lz.dlcTotal))
	rep.Metrics["lazydet.lat_p50_dlc"] = exact("DLC", float64(lz.latP50))
	rep.Metrics["lazydet.lat_p99_dlc"] = exact("DLC", float64(lz.latP99))
	rep.Metrics["consequence.lat_p99_dlc"] = exact("DLC", float64(cq.latP99))
	rep.Metrics["lazydet.throughput_kdlc"] = exact("op/kDLC", lz.throughputKDLC)
	rep.Correct = rep.Failed == 0
	return rep
}
