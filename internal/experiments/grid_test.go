package experiments

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -update rewrites the golden summary CSV from the current output.
var update = flag.Bool("update", false, "rewrite golden files")

// validGridJSON is a minimal well-formed config the error table mutates.
const validGridJSON = `{
  "name": "t",
  "repeats": 2,
  "seed_ranges": [{"from": 1, "to": 2}],
  "requests": 16,
  "mean_gaps": [64],
  "workers": [2],
  "engines": ["Consequence"],
  "contention": [{"name": "c", "keys": 16, "stripes": 2, "hot_pct": 10, "hot_keys": 2}]
}`

func TestParseGridValid(t *testing.T) {
	g, err := ParseGrid(strings.NewReader(validGridJSON))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.seeds(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("seeds = %v, want [1 2]", got)
	}
}

// Every malformed config produces its named error, so scripts and CI can
// distinguish a config bug from a runner bug.
func TestParseGridErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s string) string
		wantErr error
	}{
		{
			name:    "unknown key",
			mutate:  func(s string) string { return strings.Replace(s, `"requests"`, `"requessts"`, 1) },
			wantErr: ErrGridUnknownKey,
		},
		{
			name:    "repeats zero",
			mutate:  func(s string) string { return strings.Replace(s, `"repeats": 2`, `"repeats": 0`, 1) },
			wantErr: ErrGridRepeats,
		},
		{
			name:    "empty dimension",
			mutate:  func(s string) string { return strings.Replace(s, `"mean_gaps": [64]`, `"mean_gaps": []`, 1) },
			wantErr: ErrGridEmptyDimension,
		},
		{
			name: "overlapping seed ranges",
			mutate: func(s string) string {
				return strings.Replace(s,
					`"seed_ranges": [{"from": 1, "to": 2}]`,
					`"seed_ranges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}], "repeats": 4`, 1)
			},
			wantErr: ErrGridSeedOverlap,
		},
		{
			name: "inverted seed range",
			mutate: func(s string) string {
				return strings.Replace(s, `{"from": 1, "to": 2}`, `{"from": 2, "to": 1}`, 1)
			},
			wantErr: ErrGridSeedRange,
		},
		{
			name: "seed count mismatch",
			mutate: func(s string) string {
				return strings.Replace(s, `{"from": 1, "to": 2}`, `{"from": 1, "to": 5}`, 1)
			},
			wantErr: ErrGridSeedCount,
		},
		{
			name:    "unknown engine",
			mutate:  func(s string) string { return strings.Replace(s, `"Consequence"`, `"pthreads"`, 1) },
			wantErr: ErrGridEngine,
		},
		{
			// The interpreter is the only backend; a config written for
			// the retired backends dimension must fail, not run half.
			name: "retired backends key",
			mutate: func(s string) string {
				return strings.Replace(s, `"engines"`, `"backends": ["interp", "compiled"], "engines"`, 1)
			},
			wantErr: ErrGridUnknownKey,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid(strings.NewReader(tc.mutate(validGridJSON)))
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// The repeats field reads strangely when overridden mid-string in the
// overlap case above; make sure a duplicated key is at least not silently
// dropped by the decoder (json keeps the last one).
func TestGridSeedsFollowRangeOrder(t *testing.T) {
	g := &Grid{Repeats: 3, SeedRanges: []SeedRange{{From: 9, To: 9}, {From: 3, To: 4}}}
	if got := g.seeds(); !reflect.DeepEqual(got, []uint64{9, 3, 4}) {
		t.Errorf("seeds = %v, want [9 3 4]", got)
	}
}

// Golden-file test for the merged summary CSV: a tiny single-cell grid's
// summary must reproduce testdata/sim-golden-summary.csv byte-for-byte.
// Every column is deterministic (DLC stamps, exact percentiles, trace and
// heap fingerprints), so the golden file is stable across hosts; run with
// -update after an intentional schedule or format change.
func TestSummaryCSVGolden(t *testing.T) {
	g := &Grid{
		Name:       "golden",
		Repeats:    1,
		SeedRanges: []SeedRange{{From: 5, To: 5}},
		Requests:   48,
		MeanGaps:   []int64{64},
		Workers:    []int{2},
		Engines:    []string{"Consequence"},
		Contention: []GridContention{{Name: "c2", Keys: 32, Stripes: 2, HotPct: 20, HotKeys: 2}},
		Verify:     true,
	}
	dir := t.TempDir()
	if _, err := RunGrid(Config{CSVDir: dir}, g); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "golden-summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "sim-golden-summary.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("summary CSV drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
