package main

import (
	"testing"

	"lazydet"
)

// Every engine, pthreads included, must produce the memory the independent
// model predicts (the harness runs the oracle as the workload's Validate).
func TestAllEnginesMatchTheModel(t *testing.T) {
	for _, spec := range workloadSpecs {
		inst := spec.build(3, quickSizes)
		engines := append([]engine{engDirect}, dmtEngines...)
		if inst.sim != nil {
			engines = dmtEngines // opensim has no pthreads mode
		}
		for _, e := range engines {
			if _, err := runEngine(inst, e, lazydet.Options{}); err != nil {
				t.Errorf("%s/%s: %v", spec.name, e.name, err)
			}
		}
	}
}

// corrupt returns spec with heap word 0 falsified on its way to the oracle,
// by enough that ht-fine's invariant oracle must notice too (the value is no
// key of the table).
func corrupt(spec workloadSpec) workloadSpec {
	build := spec.build
	spec.build = func(seed uint64, sz sizes) *instance {
		inst := build(seed, sz)
		check := inst.closed.check
		inst.closed.check = func(read func(int64) int64) error {
			return check(func(a int64) int64 {
				if a == 0 {
					return read(a) + 1<<40
				}
				return read(a)
			})
		}
		return inst
	}
	return spec
}

// A corrupted heap must land in failed_share, not pass silently: every
// closed-loop oracle rejects a falsified word, and the pass counts each
// rejected run as a failed operation.
func TestCorruptedHeapIsAFailedOperation(t *testing.T) {
	for _, spec := range workloadSpecs {
		if spec.name == "sim-open" {
			continue // opensim audits its own heap; see TestSimRequestsAreCounted
		}
		rep := endToEndPass(corrupt(spec), 3, quickSizes, 0, 1)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted heap passed: %d failed of %d", spec.name, rep.Failed, rep.Attempted)
		}
		if rep.Failed != rep.Attempted {
			t.Errorf("%s: %d failed of %d attempted, want every run rejected", spec.name, rep.Failed, rep.Attempted)
		}
	}
}

func TestSimRequestsAreCounted(t *testing.T) {
	spec, _ := findWorkload("sim-open")
	rep := endToEndPass(spec, 3, quickSizes, 0, 1)
	runs := int64(2 * len(dmtEngines)) // warm-up round + one timed round
	if want := runs * (1 + quickSizes.simRequests); rep.Attempted != want || rep.Failed != 0 {
		t.Errorf("attempted %d failed %d, want %d attempted (runs and requests), 0 failed", rep.Attempted, rep.Failed, want)
	}
}

func TestHTOracleRejectsWhatTheInvariantForbids(t *testing.T) {
	inst := buildHT(3, quickSizes)
	heap := make([]int64, inst.closed.w.HeapWords)
	inst.closed.w.Init(func(a, v int64) { heap[a] = v }, threads)
	read := func(a int64) int64 { return heap[a] }
	if err := inst.closed.check(read); err != nil {
		t.Fatalf("the prefilled table fails the oracle: %v", err)
	}
	// Find an occupied slot and break it three ways.
	var slot int64
	for heap[slot] <= 1 {
		slot++
	}
	key := heap[slot] - 2
	for name, mutate := range map[string]func(){
		"wrong bucket":          func() { heap[slot] = key + 1 + 2 },
		"duplicate key":         func() { heap[(slot/htChain)*htChain+htChain-1] = key + 2 },
		"outside the key space": func() { heap[slot] = htKeys + 2 },
	} {
		saved := append([]int64(nil), heap...)
		mutate()
		if inst.closed.check(read) == nil {
			t.Errorf("%s: oracle accepted it", name)
		}
		copy(heap, saved)
	}
}
