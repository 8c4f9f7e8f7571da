// Package workloads implements the benchmark programs of the paper's
// evaluation as deterministic-VM programs: the Synchrobench hash-table
// microbenchmark (§5.1, Figures 1 and 7) and Go reimplementations of the
// PARSEC-2, SPLASH-2 and Phoenix kernels of Table 1 (§5.2–§5.4).
//
// Each reimplementation is a synthetic kernel designed to match the
// original's synchronization shape — its number of lock variables, the
// distribution of acquisitions across them, its condition variables,
// barriers and system calls — because that shape is what determines DMT
// behaviour. Compute phases are real (if scaled-down) versions of each
// benchmark's arithmetic.
package workloads

import (
	"lazydet/internal/harness"
)

// Gen names a workload generator. Scale 1 is the default problem size used
// by the table/figure experiments; smaller scales run faster.
type Gen struct {
	Name string
	// New builds the workload at the given scale (>= 1).
	New func(scale int) *harness.Workload
	// LockBased marks the benchmarks the paper groups as "lock-based"
	// (the left group of Figure 8, candidates for speculation).
	LockBased bool
}

// All returns the workload generators in Table 1's row order.
func All() []Gen {
	return []Gen{
		{Name: "barnes", New: Barnes, LockBased: true},
		{Name: "ocean_cp", New: OceanCP, LockBased: true},
		{Name: "ferret", New: Ferret, LockBased: true},
		{Name: "water_nsquared", New: WaterNSquared, LockBased: true},
		{Name: "reverse_index", New: ReverseIndex, LockBased: true},
		{Name: "water_spatial", New: WaterSpatial, LockBased: true},
		{Name: "dedup", New: Dedup, LockBased: true},
		{Name: "radix", New: Radix, LockBased: true},
		{Name: "streamcluster", New: Streamcluster},
		{Name: "fft", New: FFT},
		{Name: "blackscholes", New: Blackscholes},
		{Name: "swaptions", New: Swaptions},
		{Name: "linear_regression", New: LinearRegression},
		{Name: "word_count", New: WordCount},
		{Name: "matrix_multiply", New: MatrixMultiply},
		{Name: "pca", New: PCA},
		{Name: "string_match", New: StringMatch},
		{Name: "lu_cb", New: LUContig},
		{Name: "lu_ncb", New: LUNonContig},
	}
}

// ByName returns the named generator, or nil. Besides Table 1's rows it
// resolves the Synchrobench hash-table variants "ht" and "htlazy", which
// have one size: their generator ignores the scale.
func ByName(name string) *Gen {
	switch v := HTVariant(name); v {
	case HT, HTLazy:
		return &Gen{Name: name, New: func(int) *harness.Workload { return NewHashTable(DefaultHTConfig(v)) }, LockBased: true}
	}
	for _, g := range All() {
		if g.Name == name {
			return &g
		}
	}
	return nil
}

// layout hands out heap addresses sequentially.
type layout struct{ next int64 }

func (l *layout) alloc(n int64) int64 {
	base := l.next
	l.next += n
	return base
}

// lockAlloc hands out lock IDs sequentially.
type lockAlloc struct{ next int }

func (l *lockAlloc) alloc(n int) int {
	base := l.next
	l.next += n
	return base
}
