package main

import (
	"fmt"
	"runtime"
	"testing"

	"lazydet"
)

// deterministicOutcome runs every DMT engine once on a fresh build and
// returns what must be a function of (workload, seed) alone.
func deterministicOutcome(t *testing.T, spec workloadSpec, seed uint64) string {
	t.Helper()
	inst := spec.build(seed, quickSizes)
	s := fmt.Sprintf("plan %x", uint64(inst.plan))
	for _, e := range dmtEngines {
		out, err := runEngine(inst, e, lazydet.Options{})
		if err != nil {
			t.Fatalf("%s/%s seed %d: %v", spec.name, e.name, seed, err)
		}
		s += fmt.Sprintf(" | %s heap %x %+v", e.name, out.heapHash, out.logical)
	}
	return s
}

// The instrument itself must be deterministic: one seed gives one plan and
// one set of deterministic metrics, whatever GOMAXPROCS is; another seed
// gives another plan (on sim-open, whose plan is opensim's own, another
// outcome).
func TestSeedDeterminesPlanAndLogicalMetrics(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			a := deterministicOutcome(t, spec, 7)
			if b := deterministicOutcome(t, spec, 7); a != b {
				t.Errorf("same seed, different outcome:\n%s\n%s", a, b)
			}
			prev := runtime.GOMAXPROCS(1)
			single := deterministicOutcome(t, spec, 7)
			runtime.GOMAXPROCS(prev)
			if single != a {
				t.Errorf("GOMAXPROCS=1 changed the outcome:\n%s\n%s", a, single)
			}
			if c := deterministicOutcome(t, spec, 8); c == a {
				t.Errorf("seeds 7 and 8 gave the same plan and outcome: %s", a)
			}
			if spec.name != "sim-open" && spec.build(7, quickSizes).plan == spec.build(8, quickSizes).plan {
				t.Errorf("seeds 7 and 8 gave the same plan arrays")
			}
		})
	}
}

func TestStreamsArePartitionedBySource(t *testing.T) {
	keys, kinds := newStream(1, "keys"), newStream(1, "kinds")
	if keys.next() == kinds.next() {
		t.Error("two sources of one seed share a stream")
	}
	a, b := newStream(1, "keys"), newStream(1, "keys")
	for i := 0; i < 100; i++ {
		if x, y := a.intn(1000), b.intn(1000); x != y || x < 0 || x >= 1000 {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
	}
}
