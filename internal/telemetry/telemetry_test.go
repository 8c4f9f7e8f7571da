package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsInert: the disabled recorder is the nil pointer; every
// method must be a safe no-op on it (the invariant/trace nil-check pattern).
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Count("x", 1)
	r.Handle("x").Add(1)
	r.SetGauge("g", 2)
	r.Observe("h", 3)
	r.Span(0, SpanCommit, 1, 2, 3)
	if r.Enabled() || r.SpansEnabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	if r.Counter("x") != 0 || r.Gauge("g") != 0 || r.Threads() != 0 {
		t.Fatal("nil recorder returned non-zero state")
	}
	if r.ThreadSpans(0) != nil || r.CounterNames() != nil {
		t.Fatal("nil recorder returned non-nil collections")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil recorder snapshot is not empty")
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Count("a", 2)
	r.Count("a", 3)
	r.Count("b", -1)
	r.SetGauge("g", 1.5)
	r.SetGauge("g", 2.5)
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	if got := r.Counter("b"); got != -1 {
		t.Fatalf("counter b = %d, want -1", got)
	}
	if got := r.Gauge("g"); got != 2.5 {
		t.Fatalf("gauge g = %v, want 2.5", got)
	}
	if names := r.CounterNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("counter names = %v, want [a b]", names)
	}
}

// TestCountersConcurrent: counter updates are safe from many goroutines and
// sum exactly.
func TestCountersConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Count("n", 1)
				r.Observe("h", int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Fatalf("counter n = %d, want 8000", got)
	}
	if hs := r.Snapshot().Histograms["h"]; hs.N != 8000 {
		t.Fatalf("histogram n = %d, want 8000", hs.N)
	}
}

// TestCounterHandles: a resolved cell and Count on its name are one counter,
// adds through either sum exactly under concurrency, and resolving a cell
// does not by itself put the name in a snapshot — a publisher that resolves
// every cell at construction leaves the same snapshot as one that calls Count
// when something happens. Count(name, 0) does register the name, as it always
// has.
func TestCounterHandles(t *testing.T) {
	r := New()
	hot, idle := r.Handle("hot"), r.Handle("idle")
	if r.Handle("hot") != hot {
		t.Fatal("Handle resolved one name to two cells")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				hot.Add(1)
				r.Count("hot", 2)
			}
		}()
	}
	wg.Wait()
	r.Count("zero", 0)
	idle.Add(0)
	r.Handle("never")
	if got := r.Counter("hot"); got != 24000 {
		t.Fatalf("counter hot = %d, want 24000", got)
	}
	want := map[string]int64{"hot": 24000, "zero": 0, "idle": 0}
	if got := r.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot counters = %v, want %v", got, want)
	}
	if names := r.CounterNames(); !reflect.DeepEqual(names, []string{"hot", "idle", "zero"}) {
		t.Fatalf("counter names = %v", names)
	}
}

// TestHistogramBuckets: the fixed power-of-two layout puts each sample in
// the bucket whose lower bound is the largest power of two <= value, with
// non-positive samples in bucket 0.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<62 + 5, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(4) != 8 {
		t.Fatalf("BucketLow layout moved: %d %d %d", BucketLow(0), BucketLow(1), BucketLow(4))
	}

	r := New()
	for _, v := range []int64{0, 1, 3, 3, 9} {
		r.Observe("h", v)
	}
	hs := r.Snapshot().Histograms["h"]
	if hs.N != 5 || hs.Sum != 16 {
		t.Fatalf("hist n=%d sum=%d, want 5/16", hs.N, hs.Sum)
	}
	want := map[string]int64{"0": 1, "1": 1, "2": 2, "8": 1}
	for k, v := range want {
		if hs.Buckets[k] != v {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, hs.Buckets[k], v, hs.Buckets)
		}
	}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("unexpected extra buckets: %v", hs.Buckets)
	}
}

func TestSpans(t *testing.T) {
	r := NewWithSpans(2)
	if !r.SpansEnabled() || r.Threads() != 2 {
		t.Fatal("spans not enabled")
	}
	r.Span(0, SpanTurnWait, 10, 14, 2)
	r.Span(1, SpanCommit, 20, 20, 7)
	r.Span(5, SpanCommit, 0, 0, 0)  // out of range: ignored
	r.Span(-1, SpanCommit, 0, 0, 0) // out of range: ignored
	if got := r.ThreadSpans(0); len(got) != 1 || got[0] != (Span{SpanTurnWait, 10, 14, 2}) {
		t.Fatalf("thread 0 spans = %v", got)
	}
	if got := r.ThreadSpans(1); len(got) != 1 || got[0].Kind != SpanCommit {
		t.Fatalf("thread 1 spans = %v", got)
	}
	if r.ThreadSpans(5) != nil {
		t.Fatal("out-of-range spans not nil")
	}
	// Counter-only recorders ignore spans.
	c := New()
	c.Span(0, SpanCommit, 1, 1, 1)
	if c.SpansEnabled() || c.Threads() != 0 {
		t.Fatal("counter-only recorder has span state")
	}
}

func TestSpanKindStrings(t *testing.T) {
	kinds := map[SpanKind]string{
		SpanTurnWait: "turn-wait", SpanSpec: "speculation",
		SpanCommit: "commit", SpanRevert: "revert", SpanKind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// TestChromeTraceDeterministic: identical recorders export byte-identical
// traces, and the trace names tracks and events as documented.
func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := NewWithSpans(2)
		r.Span(0, SpanTurnWait, 0, 4, 1)
		r.Span(0, SpanCommit, 4, 4, 1)
		r.Span(1, SpanSpec, 2, 9, 3)
		r.Span(1, SpanRevert, 9, 9, 17)
		return r
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, build(), "unit"); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, build(), "unit"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of identical recorders differ")
	}
	out := a.String()
	for _, want := range []string{
		`"thread 0"`, `"thread 1"`, `"turn-wait"`, `"speculation"`,
		`"commit"`, `"revert"`, `"discarded_words": 17`, `"critical_sections": 3`,
		`"ph": "X"`, `"ph": "i"`, `"displayTimeUnit"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// Negative durations (defensive) clamp to zero.
	r := NewWithSpans(1)
	r.Span(0, SpanTurnWait, 10, 5, 0)
	var c bytes.Buffer
	if err := WriteChromeTrace(&c, r, "unit"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), `"dur": 0`) {
		t.Fatal("negative span duration not clamped to 0")
	}
}
