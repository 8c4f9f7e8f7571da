package harness_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"lazydet/internal/experiments"
	"lazydet/internal/harness"
	"lazydet/internal/opensim"
	"lazydet/internal/randprog"
	"lazydet/internal/telemetry"
	"lazydet/internal/workloads"
)

// fingerprint is one pinned run: the schedule (TraceSig), the final memory
// (HeapHash) and the deterministic half of its run report — every counter
// and gauge harness.BuildReport files under Metrics (DLC totals, turn waits,
// commit volumes, speculation outcomes, arbiter chain hits, sim latency
// percentiles). Timing and Histograms are not pinned: the first depends on
// the machine, and the second's percentiles are already metrics.
type fingerprint struct {
	Run      string             `json:"run"`
	TraceSig string             `json:"trace_sig,omitempty"`
	HeapHash string             `json:"heap_hash"`
	Metrics  map[string]float64 `json:"metrics"`
}

func fingerprintOf(run string, r telemetry.RunReport) fingerprint {
	return fingerprint{Run: run, TraceSig: r.TraceSig, HeapHash: r.HeapHash, Metrics: r.Metrics}
}

// TestPinnedFingerprints is the one record of deterministic behaviour across
// commits of this repository: the golden seeds under every deterministic
// engine variant at t=4 and t=64, the hash-table workloads under every
// engine that makes them deterministic up to t=256, the CI simulation grid
// and the hinted simulation pair must reproduce testdata/fingerprints.json
// byte for byte — schedule, final memory and every deterministic metric,
// with no tolerance.
// TestGoldenCorpusRunTwice only compares a run with itself; this compares it
// with every earlier commit, so a change that moves a schedule or a counter
// shows up as a diff to the file, listed one metric per line. Regenerate
// (after establishing that the move is intended) with:
// go test ./internal/harness -run TestPinnedFingerprints -update
func TestPinnedFingerprints(t *testing.T) {
	var got []fingerprint
	pin := func(name string, w *harness.Workload, opt harness.Options) *harness.Result {
		opt.Trace = true
		opt.Telemetry = true
		opt.CollectSpec = opt.Engine == harness.LazyDet
		res, err := harness.Run(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, fingerprintOf(name, harness.BuildReport(res)))
		return res
	}

	variants := []struct {
		name string
		opt  harness.Options
	}{
		{"Consequence", harness.Options{Engine: harness.Consequence}},
		{"TotalOrder-Weak", harness.Options{Engine: harness.TotalOrderWeak}},
		{"LazyDet", harness.Options{Engine: harness.LazyDet}},
	}
	for _, threads := range []int{4, 64} {
		cfg := randprog.DefaultConfig(threads)
		cfg.OpsPerThread = 40
		if threads == 64 {
			cfg.OpsPerThread = 16
		}
		for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 42} {
			w, _, err := randprog.Generate(seed, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, va := range variants {
				opt := va.opt
				opt.Threads = threads
				pin(fmt.Sprintf("seed%d/%s/t%d", seed, va.name, threads), w, opt)
			}
		}
	}
	for _, variant := range []workloads.HTVariant{workloads.HT, workloads.HTLazy} {
		for _, threads := range []int{4, 64, 256} {
			w := scaleHT(variant, threads)
			engines := []harness.EngineKind{harness.Consequence, harness.TotalOrderWeak, harness.LazyDet}
			if variant == workloads.HTLazy {
				// htLazy traverses its chains without locks, and
				// TotalOrder-Weak orders only synchronization: its racy
				// reads see host timing (at t=64 under -race, TraceSig
				// and HeapHash move between runs), so it has no pin.
				engines = []harness.EngineKind{harness.Consequence, harness.LazyDet}
			}
			for _, eng := range engines {
				pin(fmt.Sprintf("%s/%v/t%d", variant, eng, threads), w,
					harness.Options{Engine: eng, Threads: threads})
			}
			if threads == 4 {
				// The progcheck footprint verdicts seeding the policy: the
				// spec.* deltas against the unhinted row are what the static
				// hints buy, the progcheck.hints.* counters their verdicts.
				pin(fmt.Sprintf("%s/hints/LazyDet/t%d", variant, threads), w,
					harness.Options{Engine: harness.LazyDet, Threads: threads, SpecHints: true})
			}
		}
	}

	// Rows where same-owner publication elision is live (commit.elided > 0):
	// the burst shape elision_test.go targets, and the three Table 1 kernels
	// whose releases chain.
	for _, eng := range []harness.EngineKind{harness.Consequence, harness.LazyDet} {
		for _, threads := range []int{4, 64} {
			pin(fmt.Sprintf("burst/%v/t%d", eng, threads), burstWorkload(10, 20),
				harness.Options{Engine: eng, Threads: threads})
		}
		for _, name := range []string{"ferret", "reverse_index", "dedup"} {
			pin(fmt.Sprintf("%s/%v/t8", name, eng), workloads.ByName(name).New(1),
				harness.Options{Engine: eng, Threads: 8})
		}
	}

	// A row where earned coarsening is live at t=4: own-lock streaks long
	// enough that every thread's runs go past the coarsening floor (core's runLimit), with
	// the seed's random operations on both sides of them.
	cfg := randprog.DefaultConfig(4)
	cfg.OpsPerThread = 40
	cfg.OwnStreak = randprog.MinExtendingStreak
	w, _, err := randprog.Generate(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := pin("seed1+streak/LazyDet/t4", w, harness.Options{Engine: harness.LazyDet, Threads: 4})
	if res.Spec.ExtendedRuns.Load() == 0 {
		t.Error("seed1+streak/LazyDet/t4: no run went past the floor; the row pins nothing new")
	}

	// The open-loop simulation: the cells of the grid CI runs (each
	// cross-checked by the grid's own double run), keyed sim/..., and
	// one service cell with the static speculation hints off and on. The
	// hinted run is a different, still deterministic, schedule (the queue
	// lock classifies Conflicting, so the policy skips its warm-up), so both
	// rows are pinned whole rather than asserted equal.
	grid, err := experiments.LoadGrid(filepath.Join("..", "..", "bench", "ci-grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	sims, err := experiments.RunGrid(experiments.Config{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sims.Runs {
		got = append(got, fingerprintOf(r.Key(), r))
	}
	for _, hinted := range []bool{false, true} {
		sres, err := opensim.Run(opensim.Config{Engine: harness.LazyDet, Seed: 7, SpecHints: hinted})
		if err != nil {
			t.Fatalf("sim hints pair (hinted=%v): %v", hinted, err)
		}
		r := harness.BuildReport(sres.Harness)
		r.Workload = "sim/hints-off"
		if hinted {
			r.Workload = "sim/hints-on"
		}
		got = append(got, fingerprintOf(r.Key(), r))
	}

	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	golden := filepath.Join("testdata", "fingerprints.json")
	if *updateGolden {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing pinned fingerprints (run with -update): %v", err)
	}
	if bytes.Equal(out, raw) {
		return
	}
	var want []fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for _, line := range diffFingerprints(want, got) {
		t.Error(line)
	}
	t.Fatalf("%s differs from this commit's runs (%d pinned, %d run); regenerate with -update only if the move is intended",
		golden, len(want), len(got))
}

// diffFingerprints lists what moved between the pinned rows and this
// commit's: one `run  field  old → new` line per changed fingerprint or
// metric (an absent metric reads "absent"), then the runs that are not
// pinned and the pinned runs that no longer run.
func diffFingerprints(pinned, got []fingerprint) []string {
	byRun := make(map[string]fingerprint, len(pinned))
	for _, f := range pinned {
		byRun[f.Run] = f
	}
	ran := make(map[string]bool, len(got))
	var lines []string
	moved := func(run, field, old, nv string) {
		if old != nv {
			lines = append(lines, fmt.Sprintf("%s  %s  %s → %s", run, field, old, nv))
		}
	}
	for _, g := range got {
		ran[g.Run] = true
		p, ok := byRun[g.Run]
		if !ok {
			lines = append(lines, g.Run+": not pinned")
			continue
		}
		moved(g.Run, "trace_sig", p.TraceSig, g.TraceSig)
		moved(g.Run, "heap_hash", p.HeapHash, g.HeapHash)
		for _, m := range metricNames(p.Metrics, g.Metrics) {
			moved(g.Run, m, metricValue(p.Metrics, m), metricValue(g.Metrics, m))
		}
	}
	for _, p := range pinned {
		if !ran[p.Run] {
			lines = append(lines, p.Run+": pinned but no longer run")
		}
	}
	return lines
}

// metricNames is the sorted union of both maps' keys.
func metricNames(a, b map[string]float64) []string {
	var names []string
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

func metricValue(m map[string]float64, name string) string {
	v, ok := m[name]
	if !ok {
		return "absent"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func TestDiffFingerprints(t *testing.T) {
	row := func(run, sig string, metrics map[string]float64) fingerprint {
		return fingerprint{Run: run, TraceSig: sig, HeapHash: "h", Metrics: metrics}
	}
	a := row("a/LazyDet/t4", "s1", map[string]float64{"dlc.total": 1000, "spec.reverts": 4})
	b := row("b/Consequence/t4", "s2", map[string]float64{"dlc.total": 2000})
	cases := []struct {
		name        string
		pinned, got []fingerprint
		want        []string
	}{
		{"identical", []fingerprint{a, b}, []fingerprint{a, b}, nil},
		{
			name:   "metric moved",
			pinned: []fingerprint{a},
			got:    []fingerprint{row("a/LazyDet/t4", "s1", map[string]float64{"dlc.total": 1001, "spec.reverts": 4})},
			want:   []string{"a/LazyDet/t4  dlc.total  1000 → 1001"},
		},
		{
			name:   "metric appears and disappears",
			pinned: []fingerprint{a},
			got:    []fingerprint{row("a/LazyDet/t4", "s1", map[string]float64{"dlc.total": 1000, "spec.upgrades": 0.5})},
			want: []string{
				"a/LazyDet/t4  spec.reverts  4 → absent",
				"a/LazyDet/t4  spec.upgrades  absent → 0.5",
			},
		},
		{
			name:   "schedule moved",
			pinned: []fingerprint{b},
			got:    []fingerprint{row("b/Consequence/t4", "s3", map[string]float64{"dlc.total": 2000})},
			want:   []string{"b/Consequence/t4  trace_sig  s2 → s3"},
		},
		{
			name:   "rows not pinned and no longer run",
			pinned: []fingerprint{a},
			got:    []fingerprint{b},
			want: []string{
				"b/Consequence/t4: not pinned",
				"a/LazyDet/t4: pinned but no longer run",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := diffFingerprints(tc.pinned, tc.got); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %q\nwant %q", got, tc.want)
			}
		})
	}
}
