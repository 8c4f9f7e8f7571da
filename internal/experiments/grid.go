// The declarative experiment-grid runner behind `lazydet-bench -grid`: a JSON
// config names the dimensions of an open-loop simulation sweep (arrival
// rate × workers × engine × contention), the repeat count and the seed
// ranges; RunGrid executes the cross-product with a per-cell schedule
// cross-check and emits per-cell CSV plus a merged summary into the
// configured output folder (SNIPPETS.md snippet 3's experiments.json →
// CSV → analysis pipeline, specialized to deterministic metrics).
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"lazydet/internal/harness"
	"lazydet/internal/opensim"
	"lazydet/internal/telemetry"
)

// Named grid-validation errors (asserted by table tests and scripts).
var (
	// ErrGridUnknownKey rejects config files with unrecognized fields —
	// a misspelled dimension silently running the default would invalidate
	// a whole sweep.
	ErrGridUnknownKey = errors.New("experiments: grid config has unknown keys")
	// ErrGridRepeats rejects repeats < 1.
	ErrGridRepeats = errors.New("experiments: grid repeats must be at least 1")
	// ErrGridEmptyDimension rejects an empty dimension list.
	ErrGridEmptyDimension = errors.New("experiments: grid dimension list is empty")
	// ErrGridSeedRange rejects a seed range with from > to.
	ErrGridSeedRange = errors.New("experiments: grid seed range is inverted")
	// ErrGridSeedOverlap rejects overlapping seed ranges — repeats must
	// be independent draws, not aliases of one another.
	ErrGridSeedOverlap = errors.New("experiments: grid seed ranges overlap")
	// ErrGridSeedCount requires exactly one seed per repeat.
	ErrGridSeedCount = errors.New("experiments: grid seed ranges must supply exactly one seed per repeat")
	// ErrGridEngine rejects unknown or nondeterministic engine names.
	ErrGridEngine = errors.New("experiments: grid engine must be Consequence, TotalOrder-Weak or LazyDet")
	// ErrGridVerify reports a per-cell schedule cross-check divergence:
	// the same cell run twice produced different stamps or traces.
	ErrGridVerify = errors.New("experiments: grid cell cross-check diverged")
)

// SeedRange is an inclusive range of run seeds.
type SeedRange struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// GridContention is one point on the contention dimension.
type GridContention struct {
	Name    string `json:"name"`
	Keys    int    `json:"keys"`
	Stripes int    `json:"stripes"`
	HotPct  int    `json:"hot_pct"`
	HotKeys int    `json:"hot_keys"`
}

// Grid is the declarative description of one sweep.
type Grid struct {
	Name    string `json:"name"`
	Repeats int    `json:"repeats"`
	// SeedRanges supplies the per-repeat seeds, flattened in order; the
	// total count must equal Repeats.
	SeedRanges []SeedRange `json:"seed_ranges"`

	// Per-cell constants.
	Requests int   `json:"requests"`
	OpCost   int64 `json:"op_cost,omitempty"`
	PollCost int64 `json:"poll_cost,omitempty"`
	// Mix overrides the default workload mix when non-empty.
	Mix []opensim.MixEntry `json:"mix,omitempty"`

	// Dimensions; the cross-product is executed.
	MeanGaps   []int64          `json:"mean_gaps"`
	Workers    []int            `json:"workers"`
	Engines    []string         `json:"engines"`
	Contention []GridContention `json:"contention"`

	// PerRequestCSV additionally writes one CSV of raw stamps per cell.
	PerRequestCSV bool `json:"per_request_csv,omitempty"`
	// Verify runs each cell twice and requires identical stamps, trace
	// signature and final heap — the per-cell schedule cross-check.
	Verify bool `json:"verify,omitempty"`
}

// gridEngines maps config engine names to kinds. Only engines whose
// schedules (and therefore DLC stamps) are deterministic are admissible.
var gridEngines = map[string]harness.EngineKind{
	"Consequence":     harness.Consequence,
	"TotalOrder-Weak": harness.TotalOrderWeak,
	"LazyDet":         harness.LazyDet,
}

// ParseGrid decodes and validates a grid config. Unknown fields are an
// error (ErrGridUnknownKey), not a silent default.
func ParseGrid(r io.Reader) (*Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return nil, fmt.Errorf("%w: %v", ErrGridUnknownKey, err)
		}
		return nil, fmt.Errorf("experiments: parsing grid config: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGrid reads and validates a grid config file.
func LoadGrid(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ParseGrid(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Validate checks the grid's shape: a positive repeat count, non-empty
// dimensions, known engine names, and non-overlapping seed ranges supplying
// exactly one seed per repeat.
func (g *Grid) Validate() error {
	if g.Repeats < 1 {
		return ErrGridRepeats
	}
	dims := []struct {
		name string
		n    int
	}{
		{"mean_gaps", len(g.MeanGaps)},
		{"workers", len(g.Workers)},
		{"engines", len(g.Engines)},
		{"contention", len(g.Contention)},
	}
	for _, d := range dims {
		if d.n == 0 {
			return fmt.Errorf("%w: %s", ErrGridEmptyDimension, d.name)
		}
	}
	for _, e := range g.Engines {
		if _, ok := gridEngines[e]; !ok {
			return fmt.Errorf("%w: got %q", ErrGridEngine, e)
		}
	}
	total := 0
	for i, r := range g.SeedRanges {
		if r.From > r.To {
			return fmt.Errorf("%w: [%d, %d]", ErrGridSeedRange, r.From, r.To)
		}
		total += int(r.To - r.From + 1)
		for _, q := range g.SeedRanges[:i] {
			if r.From <= q.To && q.From <= r.To {
				return fmt.Errorf("%w: [%d, %d] and [%d, %d]", ErrGridSeedOverlap, q.From, q.To, r.From, r.To)
			}
		}
	}
	if total != g.Repeats {
		return fmt.Errorf("%w: %d seeds for %d repeats", ErrGridSeedCount, total, g.Repeats)
	}
	return nil
}

// seeds flattens the seed ranges in declaration order.
func (g *Grid) seeds() []uint64 {
	out := make([]uint64, 0, g.Repeats)
	for _, r := range g.SeedRanges {
		for s := r.From; ; s++ {
			out = append(out, s)
			if s == r.To {
				break
			}
		}
	}
	return out
}

// cellName keys one cell+repeat in reports and CSV: every dimension except
// the engine (which has its own report field) is encoded, so report keys
// are collision-free.
func cellName(cont GridContention, gap int64, workers, rep int) string {
	return fmt.Sprintf("sim/%s/g%d/w%d/r%d", cont.Name, gap, workers, rep)
}

// RunGrid executes the validated grid's cross-product and returns the suite
// report (one run per cell × repeat). When cfg.CSVDir is set it also writes
// <grid>-summary.csv (deterministic columns only — the CI byte-diff
// target), <grid>-timing.csv (wall-clock twins, machine-dependent by
// design), and with PerRequestCSV a per-cell stamp dump under cells/.
func RunGrid(cfg Config, g *Grid) (*telemetry.SuiteReport, error) {
	cfg = cfg.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	suite := &telemetry.SuiteReport{Schema: telemetry.ReportSchema, Suite: g.Name}
	summary, err := cfg.csvFile(g.Name+"-summary",
		"cell", "engine", "threads", "mean_gap", "workers", "contention",
		"repeat", "seed", "requests", "lat_p50", "lat_p95", "lat_p99", "wait_p95",
		"qdepth_max", "qdepth_mean", "makespan_dlc", "throughput_kdlc",
		"trace_sig", "heap_hash")
	if err != nil {
		return nil, err
	}
	defer summary.close()
	timing, err := cfg.csvFile(g.Name+"-timing",
		"cell", "engine", "repeat", "wall_ns", "cpu_ns", "req_per_s")
	if err != nil {
		return nil, err
	}
	defer timing.close()

	seeds := g.seeds()
	for _, cont := range g.Contention {
		for _, gap := range g.MeanGaps {
			for _, workers := range g.Workers {
				for _, engName := range g.Engines {
					for rep := 0; rep < g.Repeats; rep++ {
						cell := opensim.Config{
							Engine:   gridEngines[engName],
							Workers:  workers,
							Requests: g.Requests,
							MeanGap:  gap,
							Seed:     seeds[rep],
							Keys:     cont.Keys,
							Stripes:  cont.Stripes,
							HotPct:   cont.HotPct,
							HotKeys:  cont.HotKeys,
							OpCost:   g.OpCost,
							PollCost: g.PollCost,
							Mix:      g.Mix,
							Trace:    true,
						}
						name := cellName(cont, gap, workers, rep)
						res, err := opensim.Run(cell)
						if err != nil {
							return nil, fmt.Errorf("%s under %s: %w", name, engName, err)
						}
						if g.Verify {
							again, err := opensim.Run(cell)
							if err != nil {
								return nil, fmt.Errorf("%s under %s (cross-check): %w", name, engName, err)
							}
							if res.Harness.TraceSig != again.Harness.TraceSig ||
								res.Harness.HeapHash != again.Harness.HeapHash ||
								!reflect.DeepEqual(res.Requests, again.Requests) {
								return nil, fmt.Errorf("%w: %s under %s", ErrGridVerify, name, engName)
							}
						}
						rr := harness.BuildReport(res.Harness)
						rr.Workload = name
						suite.Runs = append(suite.Runs, rr)
						cfg.printf("%-34s %-16s lat p50/p95/p99 %d/%d/%d dlc, qmax %d\n",
							name, engName, res.LatP50, res.LatP95, res.LatP99, res.QDepthMax)

						summary.row(name, engName, workers+1, gap, workers, cont.Name,
							rep, seeds[rep], g.Requests, res.LatP50, res.LatP95, res.LatP99,
							res.WaitP95, res.QDepthMax, res.QDepthMean, res.MakespanDLC,
							res.ThroughputKDLC, rr.TraceSig, rr.HeapHash)
						wall := res.Harness.Wall.Seconds()
						reqPerS := 0.0
						if wall > 0 {
							reqPerS = float64(g.Requests) / wall
						}
						timing.row(name, engName, rep, res.Harness.Wall.Nanoseconds(),
							res.Harness.CPU.Nanoseconds(), reqPerS)

						if g.PerRequestCSV {
							if err := writePerRequest(cfg, name, engName, res); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return suite, nil
}

// writePerRequest dumps one cell's raw stamps as cells/<cell>-<engine>.csv.
// Only deterministic columns: the file participates in the CI byte-diff.
func writePerRequest(cfg Config, cell, engine string, res *opensim.Result) error {
	if cfg.CSVDir == "" {
		return nil
	}
	sub := cfg
	sub.CSVDir = cfg.CSVDir + "/cells"
	name := strings.ReplaceAll(cell, "/", "-") + "-" + engine
	f, err := sub.csvFile(name, "req", "mix", "admit", "start", "finish", "latency", "wait", "depth")
	if err != nil {
		return err
	}
	defer f.close()
	for _, q := range res.Requests {
		f.row(q.ID, q.Mix, q.Admit, q.Start, q.Finish, q.Latency(), q.Wait(), q.Depth)
	}
	return nil
}
