package opensim

import (
	"fmt"
	"reflect"
	"testing"

	"lazydet/internal/harness"
	"lazydet/internal/vheap"
)

// appendPlan is the model buildPlan is checked against: one pass over the
// requests, each drawing its gap, class, keys and read/write flags in turn
// and appending its operations to arrays that grow as they go.
func appendPlan(cfg Config) *plan {
	arrivals := newStream(cfg.Seed, "arrivals")
	mixSel := newStream(cfg.Seed, "mix")
	keySel := newStream(cfg.Seed, "keys")
	rwSel := newStream(cfg.Seed, "readwrite")
	totalWeight := int64(0)
	for _, m := range cfg.Mix {
		totalWeight += int64(m.Weight)
	}
	p := &plan{
		gapIters: make([]int64, cfg.Requests),
		mix:      make([]int32, cfg.Requests),
		opOff:    make([]int32, cfg.Requests+1),
	}
	for i := 0; i < cfg.Requests; i++ {
		p.gapIters[i] = max((arrivals.expGap(cfg.MeanGap)+burnStep/2)/burnStep, 1)
		w := mixSel.intn(totalWeight)
		cls := 0
		for w >= int64(cfg.Mix[cls].Weight) {
			w -= int64(cfg.Mix[cls].Weight)
			cls++
		}
		p.mix[i] = int32(cls)
		for op := 0; op < cfg.Mix[cls].Ops; op++ {
			var key int64
			if keySel.intn(100) < int64(cfg.HotPct) {
				key = keySel.intn(int64(cfg.HotKeys))
			} else {
				key = keySel.intn(int64(cfg.Keys))
			}
			p.opKey = append(p.opKey, int32(key))
			if rwSel.intn(100) < int64(cfg.Mix[cls].ReadPct) {
				p.opRead = append(p.opRead, 1)
			} else {
				p.opRead = append(p.opRead, 0)
				p.writes++
			}
		}
		p.opOff[i+1] = int32(len(p.opKey))
	}
	return p
}

// TestPlanMatchesAppendModel checks that building the plan at its final size
// changes no draw: every array and the write count equal the append model's,
// over several seeds, a class with no operations, and HotPct 0 and 100.
func TestPlanMatchesAppendModel(t *testing.T) {
	withEmpty := append(DefaultMix(), MixEntry{Name: "ping", Weight: 2, Ops: 0})
	for _, hot := range []int{0, 25, 100} {
		for _, mix := range [][]MixEntry{nil, withEmpty} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := Config{Engine: harness.LazyDet, Requests: 500, Seed: seed, HotPct: hot, Mix: mix}.withDefaults()
				name := fmt.Sprintf("hot%d/classes%d/seed%d", hot, len(cfg.Mix), seed)
				got, want := buildPlan(cfg), appendPlan(cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: plan differs from the append model (%d ops vs %d, %d writes vs %d)",
						name, len(got.opKey), len(want.opKey), got.writes, want.writes)
				}
			}
		}
	}
}

// simOpen is the benchmark's sim-open cell at the given request count.
func simOpen(requests int) Config {
	return Config{
		Engine:   harness.LazyDet,
		Workers:  3,
		Requests: requests,
		MeanGap:  96,
		Seed:     1,
		Keys:     64,
		Stripes:  4,
		HotPct:   25,
		HotKeys:  2,
	}
}

// TestVersionsTrackTouchedPages checks §4.2's retention on a moving write
// set: the queue slots and stamp records each receive a few commits and
// then none, and the heap still drops their dead versions. At the end of
// the run every page is touched, and only the pages of the commits after
// the last sweep may keep a version below their head — one per thread at
// most here.
func TestVersionsTrackTouchedPages(t *testing.T) {
	cfg := simOpen(2000)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Harness
	pages := int((newLayout(cfg.withDefaults()).words + vheap.DefaultPageWords - 1) / vheap.DefaultPageWords)
	if h.TouchedPages != pages {
		t.Fatalf("%d of %d pages touched, want all", h.TouchedPages, pages)
	}
	if extra := h.LiveVersions - h.TouchedPages; extra < 0 || extra > cfg.Workers+1 {
		t.Fatalf("%d live versions for %d touched pages: %d below a head, want at most %d",
			h.LiveVersions, h.TouchedPages, extra, cfg.Workers+1)
	}
}

// BenchmarkRun is one 2 000-request LazyDet run of the sim-open cell; CI
// reads its B/op (plan, heap versions, stamps and summary).
func BenchmarkRun(b *testing.B) {
	cfg := simOpen(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
