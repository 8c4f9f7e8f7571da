package opensim

import (
	"errors"
	"reflect"
	"testing"

	"lazydet/internal/harness"
)

func testConfig(e harness.EngineKind) Config {
	return Config{
		Engine:   e,
		Workers:  3,
		Requests: 200,
		MeanGap:  96,
		Seed:     42,
		Keys:     64,
		Stripes:  4,
		HotPct:   30,
		HotKeys:  2,
		Trace:    true,
	}
}

// Two runs of the same cell must agree on every stamp, the trace signature,
// the final heap, and every derived metric — the determinism claim the CI
// byte-diff rests on.
func TestRunTwiceIdentical(t *testing.T) {
	for _, e := range []harness.EngineKind{harness.Consequence, harness.TotalOrderWeak, harness.LazyDet} {
		cfg := testConfig(e)
		r1, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s run 1: %v", e, err)
		}
		r2, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s run 2: %v", e, err)
		}
		if !reflect.DeepEqual(r1.Requests, r2.Requests) {
			t.Errorf("%s: request stamps differ between runs", e)
		}
		if r1.Harness.TraceSig != r2.Harness.TraceSig {
			t.Errorf("%s: trace signatures differ: %x vs %x", e, r1.Harness.TraceSig, r2.Harness.TraceSig)
		}
		if r1.Harness.HeapHash != r2.Harness.HeapHash {
			t.Errorf("%s: heap hashes differ", e)
		}
		if r1.LatP99 != r2.LatP99 || r1.MakespanDLC != r2.MakespanDLC {
			t.Errorf("%s: derived metrics differ", e)
		}
	}
}

// Different seeds must yield different schedules (the RNG partitioning is
// actually seeded), while metrics remain internally consistent.
func TestSeedSensitivity(t *testing.T) {
	cfg := testConfig(harness.Consequence)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Requests, r2.Requests) {
		t.Error("different seeds produced identical request schedules")
	}
}

// Latency percentiles are ordered, the queue depth is sane, and a heavier
// offered load (smaller mean gap) cannot lower the latency tail — sanity of
// the queueing model on fixed seeds.
func TestMetricsSanity(t *testing.T) {
	cfg := testConfig(harness.Consequence)
	light, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if light.LatP50 > light.LatP95 || light.LatP95 > light.LatP99 {
		t.Errorf("percentiles out of order: p50=%d p95=%d p99=%d", light.LatP50, light.LatP95, light.LatP99)
	}
	if light.QDepthMax < 1 || light.ThroughputKDLC <= 0 {
		t.Errorf("degenerate metrics: qdepth=%d throughput=%f", light.QDepthMax, light.ThroughputKDLC)
	}
	cfg.MeanGap = 8 // saturating load
	heavy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.LatP99 < light.LatP99 {
		t.Errorf("saturating load lowered tail latency: %d < %d", heavy.LatP99, light.LatP99)
	}
	if heavy.QDepthMax < light.QDepthMax {
		t.Errorf("saturating load lowered max queue depth: %d < %d", heavy.QDepthMax, light.QDepthMax)
	}
}

// Engines without a deterministic logical clock are rejected by name.
func TestRejectsNonDeterministicEngines(t *testing.T) {
	for _, e := range []harness.EngineKind{harness.Pthreads, harness.TotalOrderWeakNondet} {
		_, err := Run(testConfig(e))
		if !errors.Is(err, ErrEngine) {
			t.Errorf("%s: got %v, want ErrEngine", e, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(harness.Consequence)
	cfg.Workers = -1
	if _, err := Run(cfg); !errors.Is(err, ErrWorkers) {
		t.Errorf("negative workers: got %v, want ErrWorkers", err)
	}
	cfg = testConfig(harness.Consequence)
	cfg.Requests = -1
	if _, err := Run(cfg); !errors.Is(err, ErrRequests) {
		t.Errorf("negative requests: got %v, want ErrRequests", err)
	}
	cfg = testConfig(harness.Consequence)
	cfg.Mix = []MixEntry{{Name: "noop", Weight: 0, Ops: 1}}
	if _, err := Run(cfg); !errors.Is(err, ErrMix) {
		t.Errorf("zero-weight mix: got %v, want ErrMix", err)
	}
}

// The von Neumann sampler's empirical mean must track the requested mean
// (it is an exact Exp(1) sampler scaled by mean), and it must be exactly
// reproducible from the seed.
func TestExponentialGapSampler(t *testing.T) {
	const mean, n = 128, 20000
	s := newStream(7, "arrivals")
	var sum int64
	for i := 0; i < n; i++ {
		sum += s.expGap(mean)
	}
	got := float64(sum) / n
	if got < 0.9*mean || got > 1.1*mean {
		t.Errorf("empirical mean %f, want within 10%% of %d", got, mean)
	}
	s2 := newStream(7, "arrivals")
	var sum2 int64
	for i := 0; i < n; i++ {
		sum2 += s2.expGap(mean)
	}
	if sum != sum2 {
		t.Error("same seed produced different gap sequences")
	}
}
